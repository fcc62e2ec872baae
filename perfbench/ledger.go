package main

import (
	"sort"
	"time"
)

// span accumulates the time of one named layer: calls timed from
// outside, around a public function of that layer. A sampled span times
// only some calls; covered counts every call it stands for. Sampled
// layers run together in a block that is timed whole (the fast-loop
// steps of a tick), and their self times split the block's measured
// time in proportion to their sampled mean call times. Extrapolating
// each sampled mean to every call instead would leave any host stall
// that hits an untimed call out of the ledger, so on a busy host the
// ledger would miss as much time as the host took.
type span struct {
	total   time.Duration
	timed   int64
	covered int64
	sampled bool
}

// clockCost is the median duration of an empty timed span: the cost of
// reading the clock, which every timed call subtracts so that layers of
// a few hundred nanoseconds are not inflated by the timer itself.
var clockCost = calibrateClock()

func calibrateClock() time.Duration {
	ds := make([]float64, 1001)
	for i := range ds {
		t0 := time.Now()
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds))
}

// withoutClock removes the clock's own cost from a timed duration.
func withoutClock(d time.Duration) time.Duration {
	if d -= clockCost; d < 0 {
		return 0
	}
	return d
}

// ledger is a set of layer spans. Leaf spans are layers whose self time
// counts toward the completeness gate; the rest are parents (a whole
// parked tick) reported for context only.
type ledger struct {
	spans map[string]*span
	leaf  map[string]bool
	// sampledBlock is the measured time of every block of sampled calls.
	sampledBlock time.Duration
}

func newLedger() *ledger {
	return &ledger{spans: make(map[string]*span), leaf: make(map[string]bool)}
}

func (l *ledger) get(name string) *span {
	s := l.spans[name]
	if s == nil {
		s = &span{}
		l.spans[name] = s
	}
	return s
}

// add records one timed call of a leaf layer.
func (l *ledger) add(name string, d time.Duration) {
	s := l.get(name)
	s.total += withoutClock(d)
	s.timed++
	s.covered++
	l.leaf[name] = true
}

// sample records one timed call of a sampled leaf layer; cover must be
// called for every call, timed or not.
func (l *ledger) sample(name string, d time.Duration) {
	s := l.get(name)
	s.total += withoutClock(d)
	s.timed++
	s.sampled = true
	l.leaf[name] = true
}

// cover counts n calls of a sampled layer.
func (l *ledger) cover(name string, n int64) { l.get(name).covered += n }

// block records the measured time of one block of sampled calls, timed
// or not.
func (l *ledger) block(d time.Duration) { l.sampledBlock += withoutClock(d) }

// addParent records one call of a span that is not itself a layer.
func (l *ledger) addParent(name string, d time.Duration) {
	s := l.get(name)
	s.total += withoutClock(d)
	s.timed++
	s.covered++
}

// meanNS is the mean duration of one timed call of name, 0 if none.
func (l *ledger) meanNS(name string) float64 {
	s := l.spans[name]
	if s == nil || s.timed == 0 {
		return 0
	}
	return float64(s.total.Nanoseconds()) / float64(s.timed)
}

// calls is how many calls of name the span covers.
func (l *ledger) calls(name string) int64 {
	if s := l.spans[name]; s != nil {
		return s.covered
	}
	return 0
}

// selfTime is the estimated total self time of a layer: the measured
// total of a layer timed on every call, or a sampled layer's share of
// the sampled blocks.
func (l *ledger) selfTime(name string) time.Duration {
	s := l.spans[name]
	if s == nil || s.timed == 0 {
		return 0
	}
	if !s.sampled {
		return s.total
	}
	var sum float64
	for _, o := range l.spans {
		if o.sampled && o.timed > 0 {
			sum += float64(o.total) / float64(o.timed)
		}
	}
	return time.Duration(float64(l.sampledBlock) * float64(s.total) / float64(s.timed) / sum)
}

// attributed sums the self time of every leaf layer.
func (l *ledger) attributed() time.Duration {
	var sum time.Duration
	for name := range l.leaf {
		sum += l.selfTime(name)
	}
	return sum
}

// merge adds every span of o into l.
func (l *ledger) merge(o *ledger) {
	for name, s := range o.spans {
		t := l.get(name)
		t.total += s.total
		t.timed += s.timed
		t.covered += s.covered
		t.sampled = t.sampled || s.sampled
		if o.leaf[name] {
			l.leaf[name] = true
		}
	}
	l.sampledBlock += o.sampledBlock
}

// leaves lists the leaf layers by descending self time.
func (l *ledger) leaves() []string {
	out := make([]string, 0, len(l.leaf))
	for name := range l.leaf {
		out = append(out, name)
	}
	sort.Slice(out, func(i, j int) bool {
		if a, b := l.selfTime(out[i]), l.selfTime(out[j]); a != b {
			return a > b
		}
		return out[i] < out[j]
	})
	return out
}
