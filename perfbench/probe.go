package main

import (
	"bufio"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"

	"androne/internal/telemetry"
)

// heapPoller records the live heap while it runs, sampling
// /gc/heap/live:bytes (the heap the last GC found reachable) every 2 ms.
// It keeps the peak of every window; the reported peak is the median of
// those window peaks, so one badly timed GC does not set the number.
// A window is one unit of work: a fleet round, closed by mark, or for
// the portal's fixed-rate schedule a fixed stretch of time. Windows of
// fixed time over fleet rounds, whose length follows the host's speed,
// made the number depend on the speed: on a slow host fewer windows held
// a round's peak, and the median fell by 14%.
type heapPoller struct {
	stop  chan struct{}
	done  sync.WaitGroup
	mu    sync.Mutex
	cur   uint64 // the open window's peak
	peaks []float64
	max   uint64
}

const (
	heapLive   = "/gc/heap/live:bytes"
	heapWindow = 500 * time.Millisecond
)

func readHeapLive() uint64 {
	s := []metrics.Sample{{Name: heapLive}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// startHeapPoller starts sampling until stopPeak is called. With every
// > 0 it closes a window every that long; otherwise only mark does.
func startHeapPoller(every time.Duration) *heapPoller {
	p := &heapPoller{stop: make(chan struct{}), cur: readHeapLive()}
	p.max = p.cur
	p.done.Add(1)
	go func() {
		defer p.done.Done()
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		since := time.Now()
		for {
			select {
			case <-p.stop:
				return
			case now := <-t.C:
				if every > 0 && now.Sub(since) >= every {
					p.mark()
					since = now
				}
				v := readHeapLive()
				p.mu.Lock()
				p.cur = max(p.cur, v)
				p.max = max(p.max, v)
				p.mu.Unlock()
			}
		}
	}()
	return p
}

// mark closes the open window; it does nothing on a nil poller.
func (p *heapPoller) mark() {
	if p == nil {
		return
	}
	v := readHeapLive()
	p.mu.Lock()
	p.peaks = append(p.peaks, float64(max(p.cur, v)))
	p.cur = v
	p.mu.Unlock()
}

// stopPeak stops the poller, waits for it and returns the median peak of
// the closed windows and the overall peak, in MB.
func (p *heapPoller) stopPeak() (typical, overall float64) {
	close(p.stop)
	p.done.Wait()
	return median(p.peaks) / 1e6, float64(p.max) / 1e6
}

// gcWindow measures the garbage collector's share of CPU and its total
// stop-the-world pause time between start and end.
type gcWindow struct {
	gcCPU, totalCPU float64
	pauseNS         uint64
}

func readGC() gcWindow {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcWindow{gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64(), pauseNS: ms.PauseTotalNs}
}

// since reports the GC CPU fraction and pause milliseconds from w to now.
func (w gcWindow) since() (cpuFrac, pauseMS float64) {
	now := readGC()
	if d := now.totalCPU - w.totalCPU; d > 0 {
		cpuFrac = (now.gcCPU - w.gcCPU) / d
	}
	return cpuFrac, float64(now.pauseNS-w.pauseNS) / 1e6
}

// counters reads the named counters from the process-global telemetry
// registry's exposition text.
func counters(names ...string) map[string]float64 {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	out := make(map[string]float64, len(names))
	sc := bufio.NewScanner(strings.NewReader(telemetry.DefaultRegistry.Exposition()))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || !want[f[0]] {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out
}
