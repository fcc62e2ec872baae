package netem

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestCellularLTEMatchesPaper(t *testing.T) {
	// §6.5: ~150,000 commands, mean 70 ms, max 356 ms, std 7.2 ms, 6 lost.
	l := NewLink(CellularLTE(), "paper")
	st := l.Measure(150000)
	if st.MeanMS < 65 || st.MeanMS > 75 {
		t.Errorf("mean = %.1f ms, want ~70", st.MeanMS)
	}
	if st.StdMS < 4 || st.StdMS > 12 {
		t.Errorf("std = %.1f ms, want ~7.2", st.StdMS)
	}
	if st.MaxMS < 150 || st.MaxMS > 360 {
		t.Errorf("max = %.1f ms, want approaching 356", st.MaxMS)
	}
	if st.Lost < 1 || st.Lost > 30 {
		t.Errorf("lost = %d, want a handful in 150k", st.Lost)
	}
}

func TestRFHobbyRange(t *testing.T) {
	// Hobby RC latencies range 8-85 ms.
	st := NewLink(RFHobby(), "rf").Measure(20000)
	if st.MeanMS < 8 || st.MeanMS > 85 {
		t.Errorf("RF mean = %.1f ms", st.MeanMS)
	}
	if st.MinMS < 8 {
		t.Errorf("RF min = %.1f ms below physical floor", st.MinMS)
	}
}

func TestCellularComparableToRF(t *testing.T) {
	// The paper's point: cellular control latency is in the same class as
	// RF remotes (not orders of magnitude worse).
	lte := NewLink(CellularLTE(), "x").Measure(50000)
	rf := NewLink(RFHobby(), "x").Measure(50000)
	if lte.MeanMS > 4*rf.MeanMS {
		t.Errorf("LTE mean %.1f vs RF %.1f: not comparable", lte.MeanMS, rf.MeanMS)
	}
}

func TestWiredFast(t *testing.T) {
	st := NewLink(WiredFios(), "w").Measure(10000)
	if st.MeanMS > 10 {
		t.Errorf("wired mean = %.1f ms", st.MeanMS)
	}
}

func TestSampleBounds(t *testing.T) {
	l := NewLink(CellularLTE(), "bounds")
	for i := 0; i < 200000; i++ {
		d, lost := l.Sample()
		if lost {
			continue
		}
		ms := float64(d) / float64(time.Millisecond)
		if ms < 40 || ms > 356 {
			t.Fatalf("sample %g ms outside [40, 356]", ms)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := NewLink(CellularLTE(), "d").Measure(5000)
	b := NewLink(CellularLTE(), "d").Measure(5000)
	if a != b {
		t.Fatal("same seed diverged")
	}
	c := NewLink(CellularLTE(), "e").Measure(5000)
	if a == c {
		t.Fatal("different seeds identical")
	}
}

func TestTunnelRoundTrip(t *testing.T) {
	key := []byte("per-container-vpn-key")
	sender, receiver := NewTunnel(key), NewTunnel(key)
	for i := 0; i < 10; i++ {
		payload := []byte{byte(i), 0xFE, 0x42}
		env := sender.Seal(payload)
		got, err := receiver.Open(env)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("payload %v != %v", got, payload)
		}
	}
}

func TestTunnelTamperDetected(t *testing.T) {
	key := []byte("k")
	s, r := NewTunnel(key), NewTunnel(key)
	env := s.Seal([]byte("set mode guided"))
	for i := range env {
		bad := append([]byte(nil), env...)
		bad[i] ^= 0x80
		if _, err := r.Open(bad); err == nil {
			t.Fatalf("tampering at byte %d undetected", i)
		}
	}
	// Original still valid afterwards (failed opens must not advance seq).
	if _, err := r.Open(env); err != nil {
		t.Fatalf("valid envelope rejected after tamper attempts: %v", err)
	}
}

func TestTunnelReplayRejected(t *testing.T) {
	key := []byte("k")
	s, r := NewTunnel(key), NewTunnel(key)
	env1 := s.Seal([]byte("takeoff"))
	env2 := s.Seal([]byte("land"))
	if _, err := r.Open(env1); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Open(env1); !errors.Is(err, ErrReplayed) {
		t.Fatalf("replay: %v", err)
	}
	if _, err := r.Open(env2); err != nil {
		t.Fatalf("fresh envelope after replay attempt: %v", err)
	}
}

func TestTunnelReorderRejected(t *testing.T) {
	key := []byte("k")
	s, r := NewTunnel(key), NewTunnel(key)
	env1 := s.Seal([]byte("a"))
	env2 := s.Seal([]byte("b"))
	if _, err := r.Open(env2); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Open(env1); !errors.Is(err, ErrReplayed) {
		t.Fatalf("reorder: %v", err)
	}
}

func TestTunnelWrongKey(t *testing.T) {
	s := NewTunnel([]byte("key-a"))
	r := NewTunnel([]byte("key-b"))
	if _, err := r.Open(s.Seal([]byte("x"))); !errors.Is(err, ErrTampered) {
		t.Fatalf("wrong key: %v", err)
	}
}

func TestTunnelShortEnvelope(t *testing.T) {
	r := NewTunnel([]byte("k"))
	if _, err := r.Open([]byte{1, 2, 3}); !errors.Is(err, ErrShort) {
		t.Fatalf("short: %v", err)
	}
}

func TestTunnelIsolationPerContainer(t *testing.T) {
	// Different containers use different keys: one container's traffic
	// cannot be injected into another's tunnel.
	vd1 := NewTunnel([]byte("vd1-key"))
	vd2 := NewTunnel([]byte("vd2-key"))
	env := vd1.Seal([]byte("camera frame"))
	if _, err := vd2.Open(env); err == nil {
		t.Fatal("cross-container envelope accepted")
	}
}

func TestOverheadConstant(t *testing.T) {
	s := NewTunnel([]byte("k"))
	for _, n := range []int{0, 1, 100, 4096} {
		env := s.Seal(make([]byte, n))
		if len(env) != n+Overhead {
			t.Fatalf("envelope for %d bytes = %d, want %d", n, len(env), n+Overhead)
		}
	}
}

func TestMeasureAllLost(t *testing.T) {
	p := Profile{Name: "dead", MeanMS: 10, LossProb: 1}
	st := NewLink(p, "x").Measure(100)
	if st.Lost != 100 || st.MeanMS != 0 || st.MinMS != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTransferTime(t *testing.T) {
	l := NewLink(CellularLTE(), "xfer")
	// 10 MB at 20 Mbps = 4 s serialization plus ~70 ms propagation.
	d := l.TransferTime(10 << 20)
	if d < 4*time.Second || d > 5*time.Second {
		t.Fatalf("10 MB transfer = %v, want ~4.1 s", d)
	}
	// Zero bytes: just propagation.
	if d := l.TransferTime(0); d > time.Second {
		t.Fatalf("empty transfer = %v", d)
	}
	// Unmodeled bandwidth: propagation only.
	w := NewLink(WiredFios(), "xfer")
	if d := w.TransferTime(100 << 20); d > time.Second {
		t.Fatalf("unmodeled bandwidth transfer = %v", d)
	}
	// Monotone in size.
	if l.TransferTime(1<<20) >= l.TransferTime(50<<20) {
		t.Fatal("transfer time not monotone in size")
	}
}

// TestTunnelSharedMACConcurrent seals on one tunnel end from several
// goroutines while the same end opens its peer's envelopes, so the end's
// one keyed HMAC is in use by both directions at once (run under -race).
// Every envelope must equal the one a freshly keyed HMAC gives for its
// sequence number and payload, byte for byte.
func TestTunnelSharedMACConcurrent(t *testing.T) {
	key := []byte("shared-mac-key")
	envelope := func(seq uint64, payload []byte) []byte {
		h := hmac.New(sha256.New, key)
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], seq)
		h.Write(b[:])
		h.Write(payload)
		return append(h.Sum(b[:]), payload...)
	}
	const senders, each = 4, 200
	end, peer := NewTunnel(key), NewTunnel(key)
	inbound := make([][]byte, senders*each)
	for i := range inbound {
		inbound[i] = peer.Seal([]byte{byte(i), byte(i >> 8)})
	}
	var wg sync.WaitGroup
	sealed := make([][][]byte, senders)
	for g := range senders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range each {
				sealed[g] = append(sealed[g], end.Seal([]byte{byte(g), byte(i), 0x42}))
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, env := range inbound {
			if _, err := end.Open(env); err != nil {
				t.Errorf("open %d: %v", i, err)
				return
			}
		}
	}()
	wg.Wait()
	seen := make(map[uint64]bool)
	for _, envs := range sealed {
		for _, env := range envs {
			seq := binary.BigEndian.Uint64(env)
			if want := envelope(seq, env[Overhead:]); !bytes.Equal(env, want) {
				t.Fatalf("envelope seq %d = %x, fresh HMAC gives %x", seq, env, want)
			}
			if seen[seq] {
				t.Fatalf("sequence number %d sealed twice", seq)
			}
			seen[seq] = true
		}
	}
}
