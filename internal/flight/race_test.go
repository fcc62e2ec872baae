package flight

import (
	"sync"
	"testing"

	"androne/internal/mavlink"
)

// TestConcurrentReadersDuringFlight drives the fast loop while other
// goroutines hammer Status, the one reader safe off the owner goroutine.
// Run under -race it checks the single-owner contract's read seam: the
// snapshot is published behind its own lock, and nothing a reader sees
// is torn — every snapshot is armed, in GUIDED, and never runs backwards.
func TestConcurrentReadersDuringFlight(t *testing.T) {
	v := prepare(t)
	c := v.Controller
	if err := c.SetModeNum(mavlink.ModeGuided); err != nil {
		t.Fatal(err)
	}
	if err := c.Arm(); err != nil {
		t.Fatal(err)
	}
	if err := c.Takeoff(10); err != nil {
		t.Fatal(err)
	}
	v.StepSeconds(0.1) // publish a snapshot of the armed state

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := 0.0
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := c.Status()
				if !st.Armed || st.Mode != mavlink.ModeGuided || st.TimeS < last {
					t.Errorf("torn or stale snapshot %+v after t=%g", st, last)
					return
				}
				last = st.TimeS
			}
		}()
	}

	v.StepSeconds(2)
	close(stop)
	wg.Wait()

	if !c.Armed() {
		t.Fatal("controller disarmed itself during concurrent reads")
	}
	st := c.Status()
	if st.TimeS != c.timeS || st.Position != c.Estimate() {
		t.Fatalf("status after a whole tick = %+v, want the controller's state at t=%g", st, c.timeS)
	}
	if st.Position.Alt <= 1 {
		t.Fatalf("status altitude %.2f m: the published snapshot does not follow the climb", st.Position.Alt)
	}
}

// TestConcurrentDisarm races RequestDisarm from another goroutine against
// the fast loop: the request is an atomic flag the owner drains at the
// start of a step, so the disarm lands on the owner goroutine and cannot
// tear against Step's motor command publication.
func TestConcurrentDisarm(t *testing.T) {
	v := prepare(t)
	c := v.Controller
	if err := c.SetModeNum(mavlink.ModeGuided); err != nil {
		t.Fatal(err)
	}
	if err := c.Arm(); err != nil {
		t.Fatal(err)
	}
	if err := c.Takeoff(5); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		c.RequestDisarm()
	}()
	v.StepSeconds(1)
	<-done
	v.StepSeconds(0.1) // drain a request that arrived after the last step

	if c.Armed() {
		t.Fatal("Disarm lost")
	}
	if c.Status().Armed {
		t.Fatal("the published status still shows the controller armed")
	}
}
