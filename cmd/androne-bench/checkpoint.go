// The checkpoint cycle: core.BenchmarkCheckpointCycle's save → VDR →
// restore round trip of one virtual drone, run for many cycles in a row.
// A cycle tears a virtual drone down and boots it again, so any state the
// teardown fails to free shows here as a cycle time or a live heap that
// grows with the number of cycles run. Both are part of the baseline
// record, and the live heap one is gated.

package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"androne/internal/android"
	"androne/internal/cloud"
	"androne/internal/core"
	"androne/internal/geo"
	"androne/internal/sdk"
)

// maxRetainedPerCycle bounds the live heap a checkpoint cycle may leave
// behind. A cycle that frees its virtual drone retains nothing; one that
// keeps the old drone's Android instance alive retains about 2 KB.
const maxRetainedPerCycle = 256

// checkpointMarks are the cycle counts the full run measures at; smoke
// runs use checkpointSmokeMarks.
var (
	checkpointMarks      = [2]int{1000, 10000}
	checkpointSmokeMarks = [2]int{500, 2000}
)

// checkpointRig is one drone with one virtual drone carrying flight
// progress, an app's saved instance state and a 4 KB data file, as in
// core.BenchmarkCheckpointCycle.
type checkpointRig struct {
	d   *core.Drone
	vdr *cloud.VDR
}

const checkpointVD = "cycle"

func newCheckpointRig(seed string) (*checkpointRig, error) {
	d, err := core.NewDrone(home, seed)
	if err != nil {
		return nil, err
	}
	const pkg = "com.example.survey"
	d.VDC.RegisterAppFactory(pkg, func(*core.AppContext) android.Lifecycle {
		return android.LifecycleFuncs{Save: func(*android.App) []byte { return []byte("waypoint 1 of 2 done") }}
	})
	def := &core.Definition{
		Name: checkpointVD, Owner: "alice", MaxDuration: 600, EnergyAllotted: 45000,
		WaypointDevices: []string{"camera", sdk.FlightControlDevice},
		Apps:            []string{pkg},
	}
	for i := 0; i < 2; i++ {
		def.Waypoints = append(def.Waypoints, geo.Waypoint{
			Position:  geo.Position{LatLon: geo.OffsetNE(home.LatLon, float64(50+i*40), float64(i*30)), Alt: 15},
			MaxRadius: 40,
		})
	}
	vd, err := d.VDC.Create(def)
	if err != nil {
		return nil, err
	}
	if err := d.VDC.WaypointReached(checkpointVD, 0); err != nil {
		return nil, err
	}
	if err := d.VDC.WaypointLeft(checkpointVD, 0); err != nil {
		return nil, err
	}
	vd.Container.WriteFile("/data/"+pkg+"/partial.csv", bytes.Repeat([]byte("row,"), 1024))
	return &checkpointRig{d: d, vdr: cloud.NewVDR()}, nil
}

// cycle runs one VDC.Save, VDR.Save, VDR.Load, VDC.Restore round trip.
func (r *checkpointRig) cycle() error {
	entry, err := r.d.VDC.Save(checkpointVD)
	if err != nil {
		return err
	}
	if err := r.vdr.Save(entry); err != nil {
		return err
	}
	loaded, err := r.vdr.Load(checkpointVD)
	if err != nil {
		return err
	}
	_, err = r.d.VDC.Restore(loaded)
	return err
}

// liveHeap returns the live heap after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// checkpointCycles runs the cycle up to marks[1] times and adds to rec,
// for each mark, the mean cycle time over the marks[0]/2 cycles before it
// (core.checkpoint_cycle_us@<mark>), and the live heap gained between the
// two marks per cycle run between them, gated at maxRetainedPerCycle.
func checkpointCycles(rec *record, seed string, marks [2]int) error {
	r, err := newCheckpointRig(seed)
	if err != nil {
		return err
	}
	window := marks[0] / 2
	var heap [2]uint64
	done := 0
	for i, mark := range marks {
		for ; done < mark-window; done++ {
			if err := r.cycle(); err != nil {
				return err
			}
		}
		t0 := time.Now()
		for ; done < mark; done++ {
			if err := r.cycle(); err != nil {
				return err
			}
		}
		us := float64(time.Since(t0).Microseconds()) / float64(window)
		rec.add(fmt.Sprintf("core.checkpoint_cycle_us@%d", mark), "us", us, "lower")
		heap[i] = liveHeap()
	}
	retained := (float64(heap[1]) - float64(heap[0])) / float64(marks[1]-marks[0])
	rec.add("core.checkpoint_retained_bytes_per_cycle", "B", retained, "lower")
	rec.check("core.checkpoint_retained_bytes_per_cycle", retained <= maxRetainedPerCycle,
		"%.1f B of live heap per cycle from cycle %d to %d (bound %d B)",
		retained, marks[0], marks[1], maxRetainedPerCycle)
	return nil
}
