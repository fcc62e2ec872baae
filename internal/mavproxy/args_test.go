package mavproxy

import (
	"math"
	"testing"
	"time"

	"androne/internal/mavlink"
)

// TestNonFiniteArgumentsDeniedPromptly sends a tenant's out-of-range
// arguments through a VFC in front of an armed, guided controller: a yaw
// of 1e13° (billions of turns) is accepted and wrapped, a yaw of +Inf and
// a takeoff to NaN are denied, and each answers within a millisecond, so a
// tenant cannot stall the controller's owner with an angle. Each command is
// sent several times and the fastest answer is held to the bound, so a
// thread descheduled for a few milliseconds does not fail the test; the
// unbounded wrap this guards against took seconds for every send, and the
// 5 s guard catches one that never returns.
func TestNonFiniteArgumentsDeniedPromptly(t *testing.T) {
	v, vfc := allocVehicleVFC(t)
	if err := v.Controller.Arm(); err != nil {
		t.Fatal(err)
	}
	if err := v.Controller.SetModeNum(mavlink.ModeGuided); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		cmd  *mavlink.CommandLong
		want uint8
	}{
		{"yaw 1e13°", &mavlink.CommandLong{Command: mavlink.CmdConditionYaw, Param1: 1e13}, mavlink.ResultAccepted},
		{"yaw +Inf", &mavlink.CommandLong{Command: mavlink.CmdConditionYaw, Param1: float32(math.Inf(1))}, mavlink.ResultDenied},
		{"takeoff NaN", &mavlink.CommandLong{Command: mavlink.CmdNavTakeoff, Param7: float32(math.NaN())}, mavlink.ResultDenied},
	} {
		type answer struct {
			replies []mavlink.Message
			fastest time.Duration
		}
		const sends = 5
		done := make(chan answer, 1)
		go func() {
			var a answer
			for i := 0; i < sends; i++ {
				start := time.Now()
				replies := vfc.Send(c.cmd)
				if took := time.Since(start); i == 0 || took < a.fastest {
					a.fastest = took
				}
				if ack, ok := replies[0].(*mavlink.CommandAck); !ok || ack.Result != c.want || i == 0 {
					a.replies = replies
				}
			}
			done <- a
		}()
		select {
		case a := <-done:
			ack, ok := a.replies[0].(*mavlink.CommandAck)
			if !ok || ack.Result != c.want {
				t.Fatalf("%s: answered %v, want result %d", c.what, a.replies, c.want)
			}
			if a.fastest > time.Millisecond {
				t.Errorf("%s: fastest of %d answers took %v, want within 1ms", c.what, sends, a.fastest)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: no answer after 5s", c.what)
		}
	}
}
