package planner

import (
	"fmt"
	"testing"
)

// BenchmarkKernelAnneal times annealing chains of one-waypoint tasks under
// the service's capacity cap of 3, with one route per 64 stops. Every chain
// runs on a fresh kernel, so its leg cache starts empty as a planning
// round's does; building the problem, the kernel and the greedy seed is
// left outside the timer. It reports ns/move over the chain's moves.
func BenchmarkKernelAnneal(b *testing.B) {
	const moves = 20000
	for _, n := range []int{48, 100, 1000} {
		b.Run(fmt.Sprintf("stops=%d", n), func(b *testing.B) {
			cfg := DefaultConfig(base)
			cfg.FleetSize = 1 + n/64
			cfg.MaxTasksPerRoute = 3
			tasks := genTasks(newRNG(fmt.Sprintf("bench-%d", n)), n, 1, 0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				_, k := loadKernel(cfg, tasks)
				r := newRNG(fmt.Sprintf("bench/%d", i))
				b.StartTimer()
				k.anneal(r, moves)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*moves), "ns/move")
		})
	}
}
