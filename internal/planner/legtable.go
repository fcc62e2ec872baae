package planner

import (
	"androne/internal/geo"
)

// legTable caches the integer cost of the legs between planner nodes: the
// (duration, energy) pair in kernel units, int64(d*perM*unitScale+0.5) of
// the leg's geo.Distance3D distance d. Node ids 0..n-1 are stops; every id
// from n up is a route sentinel and stands for the base (min(x, n) folds it
// onto id n, since every route starts and ends at base). A cost is computed
// the first time a move touches the pair, then reused.
//
// The cache is a performance device only: Distance3D is a pure function of
// the two positions (always taken lower id first) and the conversion a pure
// function of the distance, so a hit and a miss yield the same integers —
// cache layout, eviction, and sharing can never change a plan.
type legTable struct {
	n       int            // base id; valid ids are 0..n
	pos     []geo.Position // id -> position (pos[n] = base)
	cosLat  []float64      // id -> geo.CosLat of its position
	durPerM float64        // cruise seconds per meter
	enPerM  float64        // cruise joules per meter

	// Small instances keep the integer costs in a dense lower-triangular
	// matrix: the pair of ids lo <= hi sits at hi*(hi+1)/2 + lo. An entry
	// holds its duration complemented (^dur, never 0 since dur >= 0), so
	// the zero value marks an unfilled entry and a zero-length leg is cached
	// like any other.
	dense []legCost

	// Larger instances cache distances in a fixed-size open-addressing
	// table and convert them on every lookup; on probe overflow the
	// distance is recomputed without caching.
	keys []int64
	vals []float64
	mask int
}

// legCost is one leg's duration and energy in kernel units.
type legCost struct{ dur, en int64 }

const (
	// legDenseLimit bounds the dense matrix: 1024·1025/2 cost pairs is
	// 8 MiB.
	legDenseLimit = 1024
	// legProbeMax bounds open-addressing probes before falling back to a
	// direct computation.
	legProbeMax = 16
	// legProbeEntries caps the probe table size (1<<20 entries = 16 MiB).
	legProbeEntries = 1 << 20
)

func newLegTable(p *problem) legTable {
	t := legTable{n: p.n, durPerM: p.durPerM, enPerM: p.enPerM}
	t.pos = make([]geo.Position, t.n+1)
	for i, s := range p.stops {
		t.pos[i] = s.Waypoint.Position
	}
	t.pos[t.n] = p.base
	t.cosLat = make([]float64, t.n+1)
	for i, pos := range t.pos {
		t.cosLat[i] = geo.CosLat(pos.LatLon)
	}
	if t.n+1 <= legDenseLimit {
		t.dense = make([]legCost, (t.n+1)*(t.n+2)/2)
		return t
	}
	want := (t.n + 1) * 64
	if want > legProbeEntries {
		want = legProbeEntries
	}
	size := 1
	for size < want {
		size <<= 1
	}
	t.keys = make([]int64, size)
	t.vals = make([]float64, size)
	t.mask = size - 1
	return t
}

// cost returns the cost of the leg between nodes i and j, route sentinels
// included.
func (t *legTable) cost(i, j int32) legCost {
	a, b := min(int(i), t.n), min(int(j), t.n)
	if k := triangle(a, b); k < len(t.dense) {
		if c := t.dense[k]; c.dur != 0 {
			return legCost{^c.dur, c.en}
		}
	}
	return t.miss(a, b)
}

// triangle is the dense index of the pair of ids a, b >= 0 in either order.
// Which end of a leg has the lower id is a coin toss no branch predictor
// learns, and the compiler keeps a branch for a min or max that feeds a load
// address, so the order is taken with a sign mask instead.
func triangle(a, b int) int {
	d := a - b
	d &= d >> 63 // a - b when a < b, else 0
	lo, hi := b+d, a-d
	return hi*(hi+1)>>1 + lo
}

// miss prices the leg between ids a and b when cost does not hold it: it
// fills the pair's dense entry, or converts the probe table's distance.
func (t *legTable) miss(a, b int) legCost {
	i, j := min(a, b), max(a, b)
	if t.dense == nil {
		return t.convert(t.probe(i, j))
	}
	c := t.convert(t.measure(i, j))
	t.dense[triangle(a, b)] = legCost{^c.dur, c.en}
	return c
}

// convert is the integer cost of a leg d meters long.
func (t *legTable) convert(d float64) legCost {
	return legCost{int64(d*t.durPerM*unitScale + 0.5), int64(d*t.enPerM*unitScale + 0.5)}
}

// probe returns the 3-D distance between node ids i <= j through the probe
// table. Identical points measure exactly 0, so a leg from a node to itself
// needs no case of its own.
func (t *legTable) probe(i, j int) float64 {
	key := int64(i)*int64(t.n+1) + int64(j) + 1 // +1 keeps 0 as "empty"
	h := int(splitmix64(uint64(key))) & t.mask
	for try := 0; try < legProbeMax; try++ {
		switch t.keys[h] {
		case key:
			return t.vals[h]
		case 0:
			d := t.measure(i, j)
			t.keys[h] = key
			t.vals[h] = d
			return d
		}
		h = (h + 1) & t.mask
	}
	return t.measure(i, j)
}

// measure is geo.Distance3D between ids i and j, from their cached CosLat.
func (t *legTable) measure(i, j int) float64 {
	return geo.Distance3DCos(t.pos[i], t.pos[j], t.cosLat[i], t.cosLat[j])
}

// splitmix64 is the SplitMix64 finalizer, used to spread leg keys over the
// probe table deterministically.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
