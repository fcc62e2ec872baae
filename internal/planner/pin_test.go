package planner

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"runtime"
	"sync"
	"testing"

	"androne/internal/geo"
)

// pinInstance is one planning problem of the pinned corpus.
type pinInstance struct {
	group string // digest the plan folds into
	cfg   Config
	tasks []Task
}

// pinTasks builds nTasks tasks of exactly wps waypoints each; a task is
// ordered when a draw falls below orderedFrac (so 0 and 1 are all-or-none).
func pinTasks(r *rng, nTasks, wps int, orderedFrac float64) []Task {
	tasks := make([]Task, nTasks)
	for i := range tasks {
		w := make([]geo.Waypoint, wps)
		for j := range w {
			w[j] = wpAt(r.uniform()*1600-800, r.uniform()*1600-800)
		}
		tasks[i] = Task{
			ID: fmt.Sprintf("t%03d", i), Waypoints: w,
			EnergyJ:   2000 + r.uniform()*28000,
			DurationS: 30 + r.uniform()*240,
			Ordered:   r.uniform() < orderedFrac,
		}
	}
	return tasks
}

// pinCorpus is the fixed planning corpus whose plans are pinned: every
// small shape a quote or a planning round meets (1–8 tasks × 1–3 waypoints
// × ordered fraction × capacity cap × fleet size × 4 seeds, all at the
// default annealing schedule), plus three fleet-scale instances.
func pinCorpus() []pinInstance {
	var out []pinInstance
	for fleet := 1; fleet <= 2; fleet++ {
		for nTasks := 1; nTasks <= 8; nTasks++ {
			for wps := 1; wps <= 3; wps++ {
				for _, ord := range []float64{0, 0.5, 1} {
					for _, capN := range []int{0, 2, 3} {
						for seed := 0; seed < 4; seed++ {
							name := fmt.Sprintf("f%d/t%d/w%d/o%g/c%d/s%d", fleet, nTasks, wps, ord, capN, seed)
							cfg := DefaultConfig(base)
							cfg.FleetSize = fleet
							cfg.MaxTasksPerRoute = capN
							cfg.Seed = "pin/" + name
							out = append(out, pinInstance{
								group: fmt.Sprintf("f%d/t%d", fleet, nTasks),
								cfg:   cfg,
								tasks: pinTasks(newRNG(name), nTasks, wps, ord),
							})
						}
					}
				}
			}
		}
	}
	for _, big := range []struct {
		stops, wps, fleet, cap int
		ord                    float64
	}{
		{48, 3, 3, 3, 0.3},
		{80, 2, 4, 0, 0.5},
		{200, 2, 8, 3, 0.2},
	} {
		name := fmt.Sprintf("stops%d", big.stops)
		cfg := DefaultConfig(base)
		cfg.FleetSize = big.fleet
		cfg.MaxTasksPerRoute = big.cap
		cfg.Seed = "pin/" + name
		out = append(out, pinInstance{
			group: name, cfg: cfg,
			tasks: pinTasks(newRNG(name), big.stops/big.wps, big.wps, big.ord),
		})
	}
	return out
}

// pinnedPlanHashes are the SHA-256 digests of the JSON-encoded plans (or
// error strings) of pinCorpus, folded per group in corpus order.
var pinnedPlanHashes = map[string]string{
	"f1/t1":    "0990a32852f6cfac2375bb7ed7126eb6c05681fa39521970b267ab508e0c05c2",
	"f1/t2":    "c6f2eb16984008632eb489992cf5f8d2e8229701d60f23964e77bee9391fac5a",
	"f1/t3":    "74be435bac82e0b5c876656fe1c56e68a2239d5e4507a166fc890fce3e829a20",
	"f1/t4":    "2388019f0f9df117209ad0318ba3b2a5141d72b23983a08b85e4b7dec49af4e0",
	"f1/t5":    "ad395dd0060c52d8c675aecf940a1bea8a38dcb6c7c9c18f31f0f6c93142ba73",
	"f1/t6":    "0b7cc311a1f3c0665148b6f2a8c61ada845dde436700030dbc5ca1b2310afae1",
	"f1/t7":    "a290d416fc97fd3c1556b9a4de52cac59a90523179fff8d5b42203058042ed6f",
	"f1/t8":    "21ada892cc8f065c2284cf471d4beb4f60cc9e4e0b327c9af827f03f2808e029",
	"f2/t1":    "f1d3085c021c3d7645e01ba9f23a11490682454524b7593b90a20d56c2e3738f",
	"f2/t2":    "22c181ef0c021a4977469edfe5a45efa7db95e26f7f200f39277ad999d255ab9",
	"f2/t3":    "d1de7d2c1bd990738849b3a5ae97b1b01aec525976f4f12fa4ce33f3353e2ea9",
	"f2/t4":    "ac5cbdc4c3b513fabd2f2917da091ac508c8100e102e8199f151f9a8030ffe65",
	"f2/t5":    "a90ea6abdaee0abc9cff67a4b949395315d65fd647bb09e537d84633207b7a78",
	"f2/t6":    "4d02862f3885ae6dcee015dc87bfb7082a6655bfafc5177bb6568f8cad25ec0a",
	"f2/t7":    "7ad07b47b104249b958238279ff880de2c4e1f1230a8e056678f7e179c6715f4",
	"f2/t8":    "777f96ce34b47c0c38f40b9950494e1342c7cc53706348b6e4f4ff278515cec8",
	"stops48":  "f4a6e85e776c29f6762903544d91c5257f46a1647e1a2312f654ca7169b2e03b",
	"stops80":  "1f431624be99842fd480946310958941ef69d950d118a34c7beda23705ab87d0",
	"stops200": "89cdb84c5cb40c55414f71c714f283a4b107ab980e99c79a6b12e3a980bad20b",
}

func TestPlanHashesPinned(t *testing.T) {
	// Every plan over the corpus is pinned byte for byte: a change to the
	// annealing kernel that alters any route, cost, RNG draw or restart
	// winner moves a digest.
	corpus := pinCorpus()
	encoded := make([][]byte, len(corpus))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				in := corpus[i]
				plan, err := in.cfg.Plan(in.tasks)
				if err != nil {
					encoded[i] = []byte("error: " + err.Error())
					continue
				}
				b, err := json.Marshal(plan)
				if err != nil {
					panic(err)
				}
				encoded[i] = b
			}
		}()
	}
	for i := range corpus {
		idx <- i
	}
	close(idx)
	wg.Wait()

	digests := make(map[string]hash.Hash)
	var order []string
	for i, in := range corpus {
		h := digests[in.group]
		if h == nil {
			h = sha256.New()
			digests[in.group] = h
			order = append(order, in.group)
		}
		h.Write(encoded[i])
		h.Write([]byte{'\n'})
	}
	for _, g := range order {
		got := hex.EncodeToString(digests[g].Sum(nil))
		if want := pinnedPlanHashes[g]; got != want {
			t.Errorf("%q: %q, // pinned %q", g, got, want)
		}
	}
	if len(order) != len(pinnedPlanHashes) {
		t.Errorf("corpus has %d groups, %d pinned", len(order), len(pinnedPlanHashes))
	}
}
