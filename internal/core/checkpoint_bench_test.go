package core

import (
	"bytes"
	"testing"

	"androne/internal/android"
	"androne/internal/cloud"
)

// BenchmarkCheckpointCycle measures one save/resume round trip of a
// virtual drone through the VDR: VDC.Save, VDR.Save, VDR.Load and
// VDC.Restore. The drone carries flight progress (one of two waypoints
// visited), an app's saved instance state and a 4 KB data file.
func BenchmarkCheckpointCycle(b *testing.B) {
	d, err := NewDrone(testHome, "bench-cycle")
	if err != nil {
		b.Fatal(err)
	}
	const pkg = "com.example.survey"
	d.VDC.RegisterAppFactory(pkg, func(*AppContext) android.Lifecycle {
		return &statefulApp{state: "waypoint 1 of 2 done"}
	})
	vd, err := d.VDC.Create(defWith("cycle", 2, pkg))
	if err != nil {
		b.Fatal(err)
	}
	if err := d.VDC.WaypointReached("cycle", 0); err != nil {
		b.Fatal(err)
	}
	if err := d.VDC.WaypointLeft("cycle", 0); err != nil {
		b.Fatal(err)
	}
	vd.Container.WriteFile("/data/"+pkg+"/partial.csv", bytes.Repeat([]byte("row,"), 1024))
	vdr := cloud.NewVDR()
	restored := vd
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		entry, err := d.VDC.Save("cycle")
		if err != nil {
			b.Fatal(err)
		}
		if err := vdr.Save(entry); err != nil {
			b.Fatal(err)
		}
		loaded, err := vdr.Load("cycle")
		if err != nil {
			b.Fatal(err)
		}
		if restored, err = d.VDC.Restore(loaded); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if v, total := restored.Progress(); v != 1 || total != 2 {
		b.Fatalf("progress %d/%d, want 1/2", v, total)
	}
}
