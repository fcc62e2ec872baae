// The performance baseline: testing.Benchmark over the stack's
// instrumented hot paths, recorded in BENCH_baseline.json so later changes
// can be diffed against it. Each instrumented op is measured with
// telemetry enabled and disabled; the derived overhead percentages are the
// flight recorder's cost on that path (budget: <= 5%, see DESIGN.md).
// The record also carries the checkpoint cycle (checkpoint.go); a smoke
// run measures only that, at smaller cycle counts.
// The binder echo rig and the interleaved A/B estimator here are shared
// with the scale experiment.

package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"androne/internal/binder"
	"androne/internal/flight"
	"androne/internal/geo"
	"androne/internal/mavlink"
	"androne/internal/mavproxy"
	"androne/internal/telemetry"
)

// benchOp is one testing.Benchmark measurement.
type benchOp struct {
	NsPerOp  float64
	AllocsOp int64
	BytesOp  int64
}

// measureRounds is how many testing.Benchmark passes each op is measured
// for; the reported ns/op is the least-perturbed pass. These absolute
// figures carry run-to-run noise of several ns (GC and ramp-up state
// differ between one-second runs), which is why the telemetry overhead is
// NOT derived from them — see abRatio.
const measureRounds = 3

func measureOnce(f func(n int)) benchOp {
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		f(b.N)
	})
	return benchOp{
		NsPerOp:  float64(res.T.Nanoseconds()) / float64(res.N),
		AllocsOp: res.AllocsPerOp(),
		BytesOp:  res.AllocedBytesPerOp(),
	}
}

func minOp(a, b benchOp) benchOp {
	if b.NsPerOp < a.NsPerOp {
		return b
	}
	return a
}

func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// abRatio estimates cost(a)/cost(b) for two configurations of one
// operation, each given as a func that runs one short segment and returns
// its ns/op. Short a and b segments alternate every few milliseconds, so
// both sample the same noise environment (CPU frequency, GC phase,
// background load); comparing two independent one-second
// testing.Benchmark runs instead shows apparent swings of +-10% on ~100 ns
// ops. Which configuration runs first flips pair to pair: the first
// segment of a pair systematically differs from the second (it inherits
// the GC debt and cache state of the previous pair), so a fixed order
// would charge that asymmetry to one side. The per-pair ratios therefore
// form two clusters — the true ratio skewed each way by the position bias
// — and the estimate is the average of the two clusters' medians,
// cancelling the bias while staying robust to outlier segments.
func abRatio(a, b func() float64, pairs int) float64 {
	a() // warm up caches and both paths
	b()
	var aFirst, bFirst []float64
	for s := 0; s < pairs; s++ {
		runtime.GC() // start each pair from a comparable heap state
		var an, bn float64
		if s%2 == 0 {
			an = a()
			bn = b()
		} else {
			bn = b()
			an = a()
		}
		if bn > 0 {
			if s%2 == 0 {
				aFirst = append(aFirst, an/bn)
			} else {
				bFirst = append(bFirst, an/bn)
			}
		}
	}
	return (median(aFirst) + median(bFirst)) / 2
}

// echoRig is a binder driver with one echo service and a pool of attached
// client Procs, each holding a handle to it, so measurement segments reuse
// identical state.
type echoRig struct {
	payload []byte
	clients []echoClient
}

type echoClient struct {
	p *binder.Proc
	h binder.Handle
}

func newEchoRig(clients int) (*echoRig, error) {
	drv := binder.NewDriver()
	drv.SetRecorder(telemetry.NewRecorder())
	ns, err := drv.CreateNamespace("bench")
	if err != nil {
		return nil, err
	}
	mgr := ns.Attach(1000) //vet:allow nsguard the bench measures the raw binder ioctl path itself
	svcs := make(map[string]*binder.Node)
	mgrNode := mgr.NewNode("servicemanager:bench", func(txn binder.Txn) (binder.Reply, error) {
		switch txn.Code {
		case binder.CodeAddService:
			node, err := mgr.NodeFor(txn.Objects[0])
			if err != nil {
				return binder.Reply{}, err
			}
			svcs[string(txn.Data)] = node
			return binder.Reply{}, nil
		case binder.CodeGetService:
			node, ok := svcs[string(txn.Data)]
			if !ok {
				return binder.Reply{}, fmt.Errorf("no such service %q", txn.Data)
			}
			return binder.Reply{Objects: []*binder.Node{node}}, nil
		}
		return binder.Reply{}, fmt.Errorf("unknown code %d", txn.Code)
	})
	if err := mgr.BecomeContextManager(mgrNode); err != nil { //vet:allow nsguard the bench measures the raw binder ioctl path itself
		return nil, err
	}
	owner := ns.Attach(1000) //vet:allow nsguard the bench measures the raw binder ioctl path itself
	echo := owner.NewNode("echo", func(txn binder.Txn) (binder.Reply, error) {
		return binder.Reply{Data: txn.Data}, nil
	})
	if _, _, err := owner.Transact(0, binder.CodeAddService, []byte("echo"), []*binder.Node{echo}); err != nil { //vet:allow nsguard the bench measures the raw binder ioctl path itself
		return nil, err
	}

	r := &echoRig{payload: []byte("0123456789abcdef")}
	for c := 0; c < clients; c++ {
		p := ns.Attach(2000 + c) //vet:allow nsguard the bench measures the raw binder ioctl path itself
		_, hs, err := p.Transact(0, binder.CodeGetService, []byte("echo"), nil)
		if err != nil || len(hs) != 1 {
			return nil, fmt.Errorf("resolving echo service for client %d: %v", c, err)
		}
		r.clients = append(r.clients, echoClient{p, hs[0]})
	}
	return r, nil
}

// transact runs n echo transactions from client c.
func (r *echoRig) transact(c, n int) {
	cl := r.clients[c]
	for i := 0; i < n; i++ {
		if _, _, err := cl.p.Transact(cl.h, binder.CodeUser, r.payload, nil); err != nil {
			panic(err)
		}
	}
}

// segment runs totalOps transactions split across `workers` concurrent
// clients and returns the achieved ns/op (wall time over total ops).
func (r *echoRig) segment(workers, totalOps int) float64 {
	iters := totalOps / workers
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) { //vet:allow ctxtimeout bounded loop joined by wg.Wait below; a channel/context in the loop would pollute the measurement
			defer wg.Done()
			r.transact(w, iters)
		}(w)
	}
	wg.Wait()
	return float64(time.Since(t0).Nanoseconds()) / float64(iters*workers)
}

// cBench is the scratch counter of the telemetry-counter op. Counters
// register process-wide once, and baselineOps runs once per experiment
// that measures (baseline, scale).
var cBench = telemetry.NewCounter("androne_bench_baseline_ops_total",
	"Scratch counter for the bench baseline.")

// baselineOps builds the benchmark set, keyed by metric-name prefix. Each
// setup runs once; the returned closures run n iterations of the op,
// panicking on unexpected results (this is a measurement tool; any
// failure is a setup bug).
func baselineOps(seed string) (map[string]func(n int), []string, error) {
	// Binder: an echo service behind a context manager, transacted on the
	// user path (the ioctl the paper measures).
	rig, err := newEchoRig(1)
	if err != nil {
		return nil, nil, err
	}

	// VFC: an active connection forwarding an accepted whitelisted command
	// into the flight controller.
	v := flight.NewVehicle(home, seed, flight.WithRecorder(telemetry.NewRecorder()))
	v.StepSeconds(0.1)
	proxy := mavproxy.New(v.Controller)
	proxy.SetRecorder(telemetry.NewRecorder())
	if _, err := proxy.NewVFC("bench", mavproxy.TemplateStandard(), false); err != nil {
		return nil, nil, err
	}
	wp := geo.Waypoint{
		Position:  geo.Position{LatLon: geo.OffsetNE(home.LatLon, 40, 0), Alt: 15},
		MaxRadius: 40,
	}
	if err := proxy.Activate("bench", wp); err != nil {
		return nil, nil, err
	}
	vfc, err := proxy.VFCByName("bench")
	if err != nil {
		return nil, nil, err
	}
	yaw := &mavlink.CommandLong{Command: mavlink.CmdConditionYaw, Param1: 45}

	// Raw telemetry primitives.
	rec := telemetry.NewRecorder()
	kBench := telemetry.K("bench.op")
	kDrone := telemetry.K("bench")

	ops := map[string]func(n int){
		"binder.transact": func(n int) { rig.transact(0, n) },
		"mavproxy.vfc_send": func(n int) {
			for i := 0; i < n; i++ {
				if vfc.Send(yaw) == nil {
					panic("whitelisted command was not acknowledged")
				}
			}
		},
		"flight.fastloop": func(n int) {
			for i := 0; i < n; i++ {
				v.Sim.Step(flight.FastLoopDT)
				v.Controller.Step(flight.FastLoopDT)
			}
		},
		"telemetry.emit": func(n int) {
			for i := 0; i < n; i++ {
				rec.Emit(kDrone, kBench, int64(i), 0, "")
			}
		},
		"telemetry.counter_inc": func(n int) {
			for i := 0; i < n; i++ {
				cBench.Inc()
			}
		},
		"mavlink.roundtrip": func(n int) {
			for i := 0; i < n; i++ {
				frame, err := mavlink.Encode(uint8(i), 1, 1, yaw)
				if err != nil {
					panic(err)
				}
				if _, err := mavlink.Decode(frame); err != nil {
					panic(err)
				}
			}
		},
	}
	order := []string{
		"binder.transact", "mavproxy.vfc_send", "flight.fastloop",
		"telemetry.emit", "telemetry.counter_inc", "mavlink.roundtrip",
	}
	return ops, order, nil
}

// instrumentedOps are the hot paths whose enabled-vs-disabled gap is the
// recorder's overhead (the <= 5% budget applies to these).
var instrumentedOps = []string{"binder.transact", "mavproxy.vfc_send", "flight.fastloop"}

func baseline(seed string, smoke bool) (*record, error) {
	rec := newRecord("baseline")
	if smoke {
		header("Performance baseline, smoke size: the checkpoint cycle alone")
		return rec, checkpointCycles(rec, seed, checkpointSmokeMarks)
	}
	header("Performance baseline (testing.Benchmark over instrumented hot paths)")
	ops, order, err := baselineOps(seed)
	if err != nil {
		return nil, err
	}
	for _, name := range order {
		on := benchOp{NsPerOp: math.Inf(1)}
		off := on
		for i := 0; i < measureRounds; i++ {
			telemetry.SetEnabled(true)
			on = minOp(on, measureOnce(ops[name]))
			telemetry.SetEnabled(false)
			off = minOp(off, measureOnce(ops[name]))
		}
		telemetry.SetEnabled(true)
		rec.add(name+"_ns", "ns", on.NsPerOp, "lower")
		rec.add(name+"_ns@telemetry-off", "ns", off.NsPerOp, "lower")
		rec.add(name+"_allocs", "allocs", float64(on.AllocsOp), "lower")
		rec.add(name+"_bytes", "B", float64(on.BytesOp), "lower")
	}
	for _, name := range instrumentedOps {
		f := ops[name]
		segment := func(enabled bool) func() float64 {
			return func() float64 {
				const iters = 100000
				telemetry.SetEnabled(enabled)
				t0 := time.Now()
				f(iters)
				return float64(time.Since(t0).Nanoseconds()) / iters
			}
		}
		ratio := abRatio(segment(true), segment(false), 20)
		telemetry.SetEnabled(true)
		rec.add(name+"_telemetry_overhead_pct", "%", (ratio-1)*100, "lower")
	}
	return rec, checkpointCycles(rec, seed, checkpointMarks)
}
