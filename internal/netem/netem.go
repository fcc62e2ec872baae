// Package netem emulates the network paths AnDrone uses: the cellular LTE
// link between the cloud service and the drone (calibrated to the paper's
// §6.5 measurements — roughly 150,000 MAVLink commands over 12 hours on
// T-Mobile LTE: 70 ms mean, 7.2 ms standard deviation, 356 ms maximum, 6
// packets lost), the RF remote-control latencies of hobby drones it compares
// against (8-85 ms), and a wired connection. It also provides the
// per-container VPN tunnel that lets potentially insecure protocols, such as
// those used by drone flight controllers, be used safely over the Internet:
// an authenticated, sequence-numbered envelope that detects tampering and
// replay.
package netem

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"sync"
	"time"
)

// Profile characterizes a link's latency distribution and loss.
type Profile struct {
	Name       string
	MeanMS     float64 // mean one-way latency
	StdMS      float64 // gaussian jitter
	SpikeProb  float64 // probability of a congestion/handover spike
	SpikeMaxMS float64 // bounded spike ceiling
	MinMS      float64 // floor
	LossProb   float64 // independent packet loss
	// BandwidthMbps bounds bulk transfer throughput (0 = unmodeled).
	BandwidthMbps float64
}

// CellularLTE is the §6.5 T-Mobile LTE profile.
func CellularLTE() Profile {
	return Profile{
		Name: "cellular-lte", MeanMS: 70, StdMS: 6.5,
		SpikeProb: 0.0004, SpikeMaxMS: 356, MinMS: 40,
		LossProb:      6.0 / 150000,
		BandwidthMbps: 20, // typical LTE uplink for video/file offload
	}
}

// RFHobby is a typical hobby-drone RF remote-control link: average latencies
// range from 8 to 85 ms across products; we model a mid-pack unit.
func RFHobby() Profile {
	return Profile{
		Name: "rf-hobby", MeanMS: 40, StdMS: 12,
		SpikeProb: 0.0001, SpikeMaxMS: 120, MinMS: 8,
		LossProb: 1e-4,
	}
}

// WiredFios is the ground-station side wired connection used in the
// experiment (latency dominated by the cellular leg, so near-zero here).
func WiredFios() Profile {
	return Profile{Name: "wired-fios", MeanMS: 4, StdMS: 1, SpikeProb: 0.00005, SpikeMaxMS: 30, MinMS: 1}
}

// Link is a stateful emulated link.
type Link struct {
	mu sync.Mutex
	p  Profile
	r  *rng
}

// NewLink creates a link with deterministic behaviour for the seed.
func NewLink(p Profile, seed string) *Link {
	return &Link{p: p, r: newRNG(p.Name + "/" + seed)}
}

// SetProfile swaps the link's latency/loss profile in place, keeping the
// deterministic random stream — an emulated handover, congestion episode, or
// jammer coming and going mid-flight. The simulation harness uses this for
// timed link faults on the GCS path.
func (l *Link) SetProfile(p Profile) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.p = p
}

// Profile returns the link's current profile.
func (l *Link) Profile() Profile {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.p
}

// Sample draws one packet's fate: its one-way delay, and whether it is lost.
func (l *Link) Sample() (time.Duration, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.p.LossProb > 0 && l.r.uniform() < l.p.LossProb {
		return 0, true
	}
	ms := l.p.MeanMS + l.r.gauss()*l.p.StdMS
	if l.p.SpikeProb > 0 && l.r.uniform() < l.p.SpikeProb {
		// Handover or congestion spike, uniform up to the ceiling.
		ms += l.r.uniform() * (l.p.SpikeMaxMS - ms)
	}
	if ms < l.p.MinMS {
		ms = l.p.MinMS
	}
	if ms > l.p.SpikeMaxMS && l.p.SpikeMaxMS > 0 {
		ms = l.p.SpikeMaxMS
	}
	return time.Duration(ms * float64(time.Millisecond)), false
}

// Stats summarizes a latency experiment.
type Stats struct {
	Sent   int
	Lost   int
	MeanMS float64
	StdMS  float64
	MaxMS  float64
	MinMS  float64
}

// Measure sends n packets through the link and summarizes the outcome — the
// §6.5 experiment shape.
func (l *Link) Measure(n int) Stats {
	st := Stats{Sent: n, MinMS: math.Inf(1)}
	var sum, sumSq float64
	received := 0
	for i := 0; i < n; i++ {
		d, lost := l.Sample()
		if lost {
			st.Lost++
			continue
		}
		ms := float64(d) / float64(time.Millisecond)
		received++
		sum += ms
		sumSq += ms * ms
		if ms > st.MaxMS {
			st.MaxMS = ms
		}
		if ms < st.MinMS {
			st.MinMS = ms
		}
	}
	if received > 0 {
		st.MeanMS = sum / float64(received)
		variance := sumSq/float64(received) - st.MeanMS*st.MeanMS
		if variance > 0 {
			st.StdMS = math.Sqrt(variance)
		}
	} else {
		st.MinMS = 0
	}
	return st
}

// TransferTime estimates the time to move a bulk payload over the link:
// serialization at the profile's bandwidth plus one propagation delay. Used
// for sizing file offload and virtual drone uploads to the cloud. Links
// without a bandwidth model return just the propagation delay.
func (l *Link) TransferTime(bytes int64) time.Duration {
	prop, lost := l.Sample()
	if lost {
		// A lost handshake packet retries after a 200 ms timeout.
		prop = 200 * time.Millisecond
	}
	l.mu.Lock()
	bw := l.p.BandwidthMbps
	l.mu.Unlock()
	if bw <= 0 || bytes <= 0 {
		return prop
	}
	seconds := float64(bytes*8) / (bw * 1e6)
	return prop + time.Duration(seconds*float64(time.Second))
}

// --------------------------------------------------------------------------
// Per-container VPN tunnel

// Tunnel errors.
var (
	ErrTampered = errors.New("netem: envelope authentication failed")
	ErrReplayed = errors.New("netem: replayed or reordered sequence")
	ErrShort    = errors.New("netem: envelope too short")
)

// Tunnel is one end of a per-container VPN: it seals payloads into
// authenticated, sequence-numbered envelopes and opens envelopes from the
// peer, rejecting tampering and replays. Both ends must share the key.
type Tunnel struct {
	mu      sync.Mutex
	mac     hash.Hash // HMAC-SHA256 keyed once, Reset per envelope under mu
	sendSeq uint64
	recvSeq uint64 // highest accepted
}

// NewTunnel creates a tunnel end using the shared key.
func NewTunnel(key []byte) *Tunnel {
	return &Tunnel{mac: hmac.New(sha256.New, key)}
}

// envelope: seq(8) | maclen=32 mac | payload
const macLen = sha256.Size

// Overhead is the per-packet byte overhead the tunnel adds.
const Overhead = 8 + macLen

// Seal wraps a payload for transmission.
func (t *Tunnel) Seal(payload []byte) []byte {
	out := make([]byte, 8, Overhead+len(payload))
	t.mu.Lock()
	t.sendSeq++
	binary.BigEndian.PutUint64(out, t.sendSeq)
	out = t.sum(out, out[:8], payload)
	t.mu.Unlock()
	return append(out, payload...)
}

// Open verifies and unwraps an envelope from the peer, enforcing strictly
// increasing sequence numbers.
func (t *Tunnel) Open(envelope []byte) ([]byte, error) {
	if len(envelope) < Overhead {
		return nil, ErrShort
	}
	seq := binary.BigEndian.Uint64(envelope[:8])
	mac := envelope[8 : 8+macLen]
	payload := envelope[8+macLen:]
	var want [macLen]byte
	t.mu.Lock()
	defer t.mu.Unlock()
	if !hmac.Equal(mac, t.sum(want[:0], envelope[:8], payload)) {
		return nil, ErrTampered
	}
	if seq <= t.recvSeq {
		return nil, fmt.Errorf("%w: seq %d after %d", ErrReplayed, seq, t.recvSeq)
	}
	t.recvSeq = seq
	return append([]byte(nil), payload...), nil
}

// sum appends to dst the MAC of an envelope's big-endian sequence number
// and payload. The caller holds t.mu.
func (t *Tunnel) sum(dst, seq, payload []byte) []byte {
	t.mac.Reset()
	t.mac.Write(seq)
	t.mac.Write(payload)
	return t.mac.Sum(dst)
}

// --------------------------------------------------------------------------

type rng struct {
	state uint64
	spare float64
	has   bool
}

func newRNG(seed string) *rng {
	h := fnv.New64a()
	h.Write([]byte(seed))
	s := h.Sum64()
	if s == 0 {
		s = 0x9E3779B97F4A7C15
	}
	return &rng{state: s}
}

func (r *rng) next() uint64 {
	r.state ^= r.state << 13
	r.state ^= r.state >> 7
	r.state ^= r.state << 17
	return r.state
}

func (r *rng) uniform() float64 { return (float64(r.next()>>11) + 0.5) / (1 << 53) }

func (r *rng) gauss() float64 {
	if r.has {
		r.has = false
		return r.spare
	}
	u1, u2 := r.uniform(), r.uniform()
	m := math.Sqrt(-2 * math.Log(u1))
	r.spare = m * math.Sin(2*math.Pi*u2)
	r.has = true
	return m * math.Cos(2*math.Pi*u2)
}
