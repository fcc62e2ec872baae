// Black-box dumps: FlightRecord is the typed, JSON-serializable snapshot
// of a drone's recent event stream, taken at a trigger point (invariant
// violation, geofence breach, permission revocation, VDR save). Records
// decode interned keys to strings so a saved file is self-contained.

package telemetry

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"time"
)

// RecordEvent is one decoded event inside a FlightRecord.
type RecordEvent struct {
	Seq   uint64 `json:"seq"`
	Tick  uint64 `json:"tick"`
	Kind  string `json:"kind"`
	Drone string `json:"drone,omitempty"`
	A     int64  `json:"a,omitempty"`
	B     int64  `json:"b,omitempty"`
	Note  string `json:"note,omitempty"`
}

// FlightRecord is a black-box dump: the last N events relevant to one
// drone (or the whole system when Drone is empty), plus the trigger that
// caused the dump and any trigger-specific metadata (e.g. breach-recovery
// retry counts).
type FlightRecord struct {
	Drone   string             `json:"drone,omitempty"`
	Trigger string             `json:"trigger"`
	Tick    uint64             `json:"tick"`
	Seq     uint64             `json:"seq"`
	Meta    map[string]float64 `json:"meta,omitempty"`
	Events  []RecordEvent      `json:"events"`
}

// Dump snapshots the event stream for drone into a FlightRecord tagged
// with trigger and archives it in the recorder's bounded record list.
// meta may be nil. Dump is a cold path — it allocates freely, but the
// record it archives must be replay-identical.
//
//vet:detpath black-box dumps are compared bit-for-bit across replays
func (r *Recorder) Dump(drone Key, trigger string, meta map[string]float64) {
	if r == nil || !enabled.Load() {
		return
	}
	events := r.Snapshot(drone)
	head := FlightRecord{
		Drone:   KeyName(drone),
		Trigger: trigger,
		Tick:    r.tick.Load(),
		Meta:    meta,
	}
	r.rmu.Lock()
	// The Seq is taken under rmu so the archive stays in Seq order, which
	// RecordsSince readers such as StartFlusher rely on.
	head.Seq = r.seq.Add(1)
	r.archive.add(head, events)
	r.rmu.Unlock()
	mDumps.Inc()
}

// DecodeEvents resolves the interned keys in a raw event snapshot to
// strings — the form HTTP trace endpoints and CLIs render.
//
//vet:detpath decoded traces must render identically across replays
func DecodeEvents(events []Event) []RecordEvent {
	out := make([]RecordEvent, len(events))
	for i, ev := range events {
		out[i] = decodeEvent(ev)
	}
	return out
}

func decodeEvent(ev Event) RecordEvent {
	return RecordEvent{
		Seq:   ev.Seq,
		Tick:  ev.Tick,
		Kind:  KeyName(ev.Kind),
		Drone: KeyName(ev.Drone),
		A:     ev.A,
		B:     ev.B,
		Note:  ev.Note,
	}
}

// archive is a Recorder's bounded black-box record list. Consecutive
// dumps of one drone overlap in most of their events, so the archive
// holds each decoded event once: events is Seq-sorted, and refs[i]
// counts the retained records that include events[i]. A record keeps its
// header and the Seqs of its events in the order Dump snapshotted them.
// Membership is listed rather than read off a Seq range, because a ring
// written by concurrent emitters can hold events out of Seq order.
type archive struct {
	events  []RecordEvent
	refs    []uint8
	records []archived // oldest first, at most maxRecords
}

// archived is one record: its header (Events nil) and its events' Seqs.
type archived struct {
	head FlightRecord
	seqs []uint64
}

// An event is included by at most maxRecords+1 records at once.
const _ = uint8(maxRecords + 1)

// add archives the record head over events, a Snapshot, evicting the
// oldest record once maxRecords are held.
func (a *archive) add(head FlightRecord, events []Event) {
	seqs := make([]uint64, len(events))
	fresh := events[:0] // the events the store does not hold yet
	find := a.walk()
	for i, ev := range events {
		seqs[i] = ev.Seq
		if j, ok := find(ev.Seq); ok {
			a.refs[j]++
		} else {
			fresh = append(fresh, ev)
		}
	}
	if len(a.records) == maxRecords {
		a.release(a.records[0].seqs)
		copy(a.records, a.records[1:])
		a.records[len(a.records)-1] = archived{}
		a.records = a.records[:len(a.records)-1]
	}
	a.insert(fresh)
	a.records = append(a.records, archived{head: head, seqs: seqs})
}

// walk returns a lookup of store indices by Seq for a run of Seqs in
// snapshot order. Ascending Seqs advance one cursor through the store, so
// a snapshot's lookups cost one pass over it; a Seq below the one before
// it, which only racing emitters leave, restarts the cursor.
func (a *archive) walk() func(seq uint64) (int, bool) {
	j := 0
	var last uint64
	return func(seq uint64) (int, bool) {
		if seq < last {
			j = 0
		}
		last = seq
		for j < len(a.events) && a.events[j].Seq < seq {
			j++
		}
		return j, j < len(a.events) && a.events[j].Seq == seq
	}
}

// insert stores fresh — events the store lacks, each held by one record
// so far. It merges from the back, so only store events with a Seq above
// the lowest fresh one move, each once. When every fresh Seq is above the
// store's tail, nothing moves: the fresh events are appended.
func (a *archive) insert(fresh []Event) {
	slices.SortFunc(fresh, func(x, y Event) int { return cmp.Compare(x.Seq, y.Seq) })
	n, need := len(a.events), len(a.events)+len(fresh)
	a.events = slices.Grow(a.events, len(fresh))[:need]
	a.refs = slices.Grow(a.refs, len(fresh))[:need]
	i, k := n-1, len(fresh)-1
	for w := need - 1; k >= 0; w-- {
		if i >= 0 && a.events[i].Seq > fresh[k].Seq {
			a.events[w], a.refs[w] = a.events[i], a.refs[i]
			i--
		} else {
			a.events[w], a.refs[w] = decodeEvent(fresh[k]), 1
			k--
		}
	}
}

// release drops one reference to each of seqs and removes the events no
// retained record includes any more.
func (a *archive) release(seqs []uint64) {
	dead := false
	find := a.walk()
	for _, seq := range seqs {
		j, _ := find(seq)
		a.refs[j]--
		dead = dead || a.refs[j] == 0
	}
	if !dead {
		return
	}
	n := 0
	for j := range a.events {
		if a.refs[j] > 0 {
			a.events[n], a.refs[n] = a.events[j], a.refs[j]
			n++
		}
	}
	clear(a.events[n:])
	a.events, a.refs = a.events[:n], a.refs[:n]
}

// record materializes rec as the FlightRecord Dump archived.
func (a *archive) record(rec archived) FlightRecord {
	out := rec.head
	out.Events = make([]RecordEvent, len(rec.seqs))
	find := a.walk()
	for i, seq := range rec.seqs {
		j, _ := find(seq)
		out.Events[i] = a.events[j]
	}
	return out
}

// Records returns the archived FlightRecords, oldest first.
func (r *Recorder) Records() []FlightRecord {
	return r.RecordsSince(0)
}

// RecordsSince returns the archived records with Seq greater than seq —
// the flusher's incremental read.
func (r *Recorder) RecordsSince(seq uint64) []FlightRecord {
	if r == nil {
		return nil
	}
	r.rmu.Lock()
	defer r.rmu.Unlock()
	var out []FlightRecord
	for _, rec := range r.archive.records {
		if rec.head.Seq > seq {
			out = append(out, r.archive.record(rec))
		}
	}
	return out
}

// ParseRecords decodes a saved FlightRecord file: either a single JSON
// object or a JSON array of records.
func ParseRecords(data []byte) ([]FlightRecord, error) {
	trimmed := bytes.TrimSpace(data)
	if len(trimmed) == 0 {
		return nil, fmt.Errorf("telemetry: empty record file")
	}
	if trimmed[0] == '[' {
		var recs []FlightRecord
		if err := json.Unmarshal(trimmed, &recs); err != nil {
			return nil, fmt.Errorf("telemetry: parse records: %w", err)
		}
		return recs, nil
	}
	var rec FlightRecord
	if err := json.Unmarshal(trimmed, &rec); err != nil {
		return nil, fmt.Errorf("telemetry: parse record: %w", err)
	}
	return []FlightRecord{rec}, nil
}

// StartFlusher spawns a background goroutine that every interval hands
// newly archived FlightRecords to sink, and returns a stop function. The
// sink runs on the flusher goroutine with no recorder locks held, so it
// may block or take its own locks freely.
func (r *Recorder) StartFlusher(interval time.Duration, sink func([]FlightRecord)) (stop func()) {
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		var lastSeq uint64
		for {
			select {
			case <-done:
				return
			case <-t.C:
				recs := r.RecordsSince(lastSeq)
				if len(recs) == 0 {
					continue
				}
				lastSeq = recs[len(recs)-1].Seq
				sink(recs)
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}
