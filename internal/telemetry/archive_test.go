package telemetry

import (
	"cmp"
	"math/rand/v2"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// referenceArchive is the decode-per-dump archive that the shared event
// store replaced, kept as the differential oracle for Recorder's
// archive: every record holds its own decoded copy of its events, and
// the list is bounded by reslicing.
type referenceArchive struct{ records []FlightRecord }

// dump is the old Recorder.Dump, archiving into o over r's rings.
func (o *referenceArchive) dump(r *Recorder, drone Key, trigger string, meta map[string]float64) {
	events := r.Snapshot(drone)
	rec := FlightRecord{
		Drone:   KeyName(drone),
		Trigger: trigger,
		Tick:    r.tick.Load(),
		Seq:     r.seq.Add(1),
		Meta:    meta,
		Events:  DecodeEvents(events),
	}
	o.records = append(o.records, rec)
	if len(o.records) > maxRecords {
		o.records = o.records[len(o.records)-maxRecords:]
	}
}

func (o *referenceArchive) recordsSince(seq uint64) []FlightRecord {
	var out []FlightRecord
	for _, rec := range o.records {
		if rec.Seq > seq {
			out = append(out, rec)
		}
	}
	return out
}

// put rings ev as Emit does, without taking a Seq for it.
func put(r *Recorder, ev Event) {
	r.gmu.Lock()
	r.global.put(ev)
	r.gmu.Unlock()
	if ev.Drone != 0 {
		s := &r.stripes[uint32(ev.Drone)%nStripes]
		s.mu.Lock()
		if s.rings[ev.Drone] == nil {
			s.rings[ev.Drone] = newRing(r.perDroneCap)
		}
		s.rings[ev.Drone].put(ev)
		s.mu.Unlock()
	}
}

// archivePair runs one op sequence on the recorder under test and on a
// twin recorder that archives into the reference. Both take the same
// Seqs, so their records must be equal.
type archivePair struct {
	got, twin *Recorder
	ref       referenceArchive
	pending   []Event // Seqs taken and not yet ringed
}

var (
	archiveDrones = [4]Key{0, K("arch-a"), K("arch-b"), K("arch-c")}
	archiveKinds  = [2]Key{K("arch.op"), K("arch.mode")}
	archiveNotes  = [3]string{"", "loiter", "note"}
)

func newArchivePair() *archivePair {
	return &archivePair{got: NewRecorderSized(16, 8), twin: NewRecorderSized(16, 8)}
}

// run applies ops, one byte each: the low three bits pick the op and the
// rest are its argument.
func (p *archivePair) run(t testing.TB, ops []byte) {
	for i, b := range ops {
		op, arg := b%8, int(b/8)
		drone := archiveDrones[arg%4]
		switch op {
		case 0, 1, 2: // emit; drone 0 is system-wide
			for _, r := range []*Recorder{p.got, p.twin} {
				r.Emit(drone, archiveKinds[op%2], int64(i), int64(arg), archiveNotes[arg/4%3])
			}
		case 3, 4: // dump, drone 0 included
			var meta map[string]float64
			if arg/4%2 == 1 {
				meta = map[string]float64{"op": float64(i)}
			}
			p.got.Dump(drone, "fuzz", meta)
			p.ref.dump(p.twin, drone, "fuzz", meta)
			p.compare(t, i, p.ref.records[len(p.ref.records)-1].Seq-1)
		case 5:
			p.got.AdvanceTicks(arg + 1)
			p.twin.AdvanceTicks(arg + 1)
		case 6: // take a Seq now and ring it later, as a racing emitter does
			p.twin.seq.Add(1)
			p.pending = append(p.pending, Event{
				Seq: p.got.seq.Add(1), Tick: p.got.tick.Load(),
				Kind: archiveKinds[0], Drone: drone, A: int64(i), Note: "late",
			})
		case 7:
			if arg%2 == 0 { // ring the pending events, newest first
				for j := len(p.pending) - 1; j >= 0; j-- {
					put(p.got, p.pending[j])
					put(p.twin, p.pending[j])
				}
				p.pending = p.pending[:0]
				continue
			}
			var since uint64
			if n := len(p.ref.records); n > 0 {
				since = p.ref.records[arg%n].Seq - uint64(arg/2%2)
			}
			p.compare(t, i, since)
		}
	}
	p.compare(t, len(ops), 0)
}

// compare checks Records, or RecordsSince(since) for a nonzero since,
// against the reference, and the store against its records.
func (p *archivePair) compare(t testing.TB, step int, since uint64) {
	t.Helper()
	read, got, want := "Records()", p.got.Records(), p.ref.recordsSince(0)
	if since > 0 {
		read, got, want = "RecordsSince", p.got.RecordsSince(since), p.ref.recordsSince(since)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("step %d: %s(%d) differs from the reference:\n got  %+v\n want %+v", step, read, since, got, want)
	}
	checkStore(t, p.got)
}

// checkStore verifies that r's store is Seq-sorted and holds exactly the
// events its retained records include, each with its reference count.
func checkStore(t testing.TB, r *Recorder) {
	t.Helper()
	r.rmu.Lock()
	defer r.rmu.Unlock()
	a := &r.archive
	if len(a.records) > maxRecords {
		t.Fatalf("%d records retained, bound %d", len(a.records), maxRecords)
	}
	if len(a.refs) != len(a.events) {
		t.Fatalf("store holds %d events and %d counts", len(a.events), len(a.refs))
	}
	for i := 1; i < len(a.events); i++ {
		if a.events[i].Seq <= a.events[i-1].Seq {
			t.Fatalf("store not Seq-sorted at %d: %d after %d", i, a.events[i].Seq, a.events[i-1].Seq)
		}
	}
	held := make([]int, len(a.events))
	for _, rec := range a.records {
		for _, seq := range rec.seqs {
			j, ok := slices.BinarySearchFunc(a.events, seq, func(ev RecordEvent, seq uint64) int {
				return cmp.Compare(ev.Seq, seq)
			})
			if !ok {
				t.Fatalf("record %d includes event %d, which the store lacks", rec.head.Seq, seq)
			}
			held[j]++
		}
	}
	for j, n := range held {
		if n == 0 || int(a.refs[j]) != n {
			t.Fatalf("event %d counts %d references, records hold %d", a.events[j].Seq, a.refs[j], n)
		}
	}
}

// TestArchiveMatchesReference runs random op sequences — emits, dumps of
// drones and of drone 0, meta maps, notes, late-ringed events, eviction
// and RecordsSince reads — against the archive and the reference.
func TestArchiveMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewPCG(seed, 22))
		ops := make([]byte, 600+rng.IntN(600))
		for i := range ops {
			ops[i] = byte(rng.UintN(256))
		}
		newArchivePair().run(t, ops)
	}
}

func FuzzRecorderArchive(f *testing.F) {
	f.Add([]byte{0, 8, 16, 3, 11, 19, 27, 5, 15})
	f.Add([]byte{6, 14, 0, 8, 3, 11, 7, 3, 11, 15})
	f.Fuzz(func(t *testing.T, ops []byte) {
		newArchivePair().run(t, ops)
	})
}

// TestArchiveHoldsEachEventOnce pins the archive's bound: three drones
// with full rings, one new event and one dump per drone in turn. The
// archive keeps maxRecords records, its store holds only what they
// include, and after the first thousand dumps the live heap stops
// growing: evicted records are released, not pinned.
func TestArchiveHoldsEachEventOnce(t *testing.T) {
	r := NewRecorder()
	drones := []Key{K("once-a"), K("once-b"), K("once-c")}
	kind := K("once.op")
	for _, d := range drones {
		for i := 0; i < DefaultPerDroneCap; i++ {
			r.Emit(d, kind, int64(i), 0, "")
		}
	}
	liveHeap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	var at1k int64
	for i := 1; i <= 10000; i++ {
		d := drones[i%len(drones)]
		r.Emit(d, kind, int64(i), 0, "")
		r.Dump(d, "once", nil)
		if i == 1000 {
			at1k = liveHeap()
		}
	}
	at10k := liveHeap()
	if got := len(r.Records()); got != maxRecords {
		t.Fatalf("archive holds %d records, want %d", got, maxRecords)
	}
	checkStore(t, r)
	recordSize := int64(DefaultPerDroneCap) * int64(unsafe.Sizeof(RecordEvent{}))
	t.Logf("live heap %d B at dump 1,000, %d B at dump 10,000", at1k, at10k)
	if moved := at10k - at1k; moved > recordSize || moved < -recordSize {
		t.Fatalf("live heap moved %d bytes from dump 1,000 to dump 10,000; one record is %d", moved, recordSize)
	}
	runtime.KeepAlive(r)
}

// TestArchiveConcurrent races emitters, dumpers and a flusher on one
// recorder (run it under -race), then checks the archive's invariants.
func TestArchiveConcurrent(t *testing.T) {
	r := NewRecorderSized(64, 16)
	var delivered atomic.Int64
	stop := r.StartFlusher(time.Millisecond, func(recs []FlightRecord) {
		for _, rec := range recs {
			if rec.Events == nil {
				t.Errorf("flushed record %d has no event list", rec.Seq)
			}
		}
		delivered.Add(int64(len(recs)))
	})
	defer stop()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Emit(archiveDrones[(w+i)%4], archiveKinds[i%2], int64(w), int64(i), "")
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Dump(archiveDrones[(w+i)%4], "race", nil)
			}
		}(w)
	}
	wg.Wait()
	for deadline := time.Now().Add(2 * time.Second); delivered.Load() == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if delivered.Load() == 0 {
		t.Fatal("flusher delivered nothing")
	}
	if got := len(r.Records()); got != maxRecords {
		t.Fatalf("archive holds %d records, want %d", got, maxRecords)
	}
	checkStore(t, r)
	for _, rec := range r.Records() {
		for _, ev := range rec.Events {
			if ev.Drone != rec.Drone && ev.Drone != "" && rec.Drone != "" {
				t.Fatalf("record of %q holds an event of %q", rec.Drone, ev.Drone)
			}
		}
	}
}

// TestConcurrentDumpsKeepSeqOrder races dumpers on one recorder (run it
// under -race): the archive must list records in strictly ascending Seq,
// and an incremental RecordsSince walk, as StartFlusher makes, must
// deliver every dumped Seq exactly once.
func TestConcurrentDumpsKeepSeqOrder(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		r := NewRecorderSized(64, 16)
		const dumpers, dumps = 4, 12 // 48 records: none is evicted
		seen := make(map[uint64]int)
		var lastSeq uint64
		walk := func() {
			for _, rec := range r.RecordsSince(lastSeq) {
				seen[rec.Seq]++
				lastSeq = rec.Seq
			}
		}
		var wg sync.WaitGroup
		for w := 0; w < dumpers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < dumps; i++ {
					r.Dump(archiveDrones[w%len(archiveDrones)], "race", nil)
				}
			}(w)
		}
		for i := 0; i < dumpers*dumps; i++ {
			walk()
			runtime.Gosched()
		}
		wg.Wait()
		walk()

		recs := r.Records()
		if len(recs) != dumpers*dumps {
			t.Fatalf("trial %d: archive holds %d records, want %d", trial, len(recs), dumpers*dumps)
		}
		for i := 1; i < len(recs); i++ {
			if recs[i].Seq <= recs[i-1].Seq {
				t.Fatalf("trial %d: record %d has Seq %d after Seq %d", trial, i, recs[i].Seq, recs[i-1].Seq)
			}
		}
		for _, rec := range recs {
			if n := seen[rec.Seq]; n != 1 {
				t.Fatalf("trial %d: the walk delivered Seq %d %d times, want once", trial, rec.Seq, n)
			}
		}
		if len(seen) != len(recs) {
			t.Fatalf("trial %d: the walk delivered %d Seqs, the archive holds %d", trial, len(seen), len(recs))
		}
	}
}

// BenchmarkDump dumps three drones in turn, each with a full ring, as
// checkpoint churn does: every drone emits one event before its dump and
// one after it, beside one system-wide event, so most of each snapshot
// is archived already and some of what is new predates other drones'
// dumps.
func BenchmarkDump(b *testing.B) {
	r := NewRecorder()
	drones := []Key{K("bench-a"), K("bench-b"), K("bench-c")}
	kind := K("bench.op")
	for _, d := range drones {
		for i := 0; i < DefaultPerDroneCap; i++ {
			r.Emit(d, kind, int64(i), 0, "")
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := drones[i%len(drones)]
		r.Emit(d, kind, int64(i), 0, "")
		r.Emit(0, kind, int64(i), 0, "")
		r.Dump(d, "bench", nil)
		r.Emit(d, kind, int64(i), 1, "")
	}
}
