package flight

import (
	"math"
	"sort"

	"androne/internal/mavlink"
)

// Tunable parameters, named as ArduPilot names them. Values use ArduPilot's
// units (cm/s, centidegrees, cm) on the wire and are clamped to
// provider-configured hard bounds when set.
const (
	ParamWPNavSpeed = "WPNAV_SPEED"  // horizontal speed limit, cm/s
	ParamSpeedUp    = "PILOT_SPD_UP" // climb rate limit, cm/s
	ParamSpeedDown  = "PILOT_SPD_DN" // descent rate limit, cm/s
	ParamAngleMax   = "ANGLE_MAX"    // tilt limit, centidegrees
	ParamRTLAlt     = "RTL_ALT"      // return altitude, cm
	ParamFSBattPct  = "FS_BATT_PCT"  // battery failsafe threshold, percent (0 = off)
)

// paramNames is the stable parameter table order.
var paramNames = []string{
	ParamAngleMax, ParamFSBattPct, ParamSpeedDown, ParamSpeedUp, ParamRTLAlt, ParamWPNavSpeed,
}

func init() { sort.Strings(paramNames) }

// paramGet reads a parameter in wire units.
func (c *Controller) paramGet(name string) (float32, bool) {
	switch name {
	case ParamWPNavSpeed:
		return float32(c.limits.MaxSpeedMS * 100), true
	case ParamSpeedUp:
		return float32(c.limits.MaxClimbMS * 100), true
	case ParamSpeedDown:
		return float32(c.limits.MaxDescentMS * 100), true
	case ParamAngleMax:
		return float32(c.limits.MaxTiltRad * 180 / math.Pi * 100), true
	case ParamRTLAlt:
		return float32(c.rtlAltM * 100), true
	case ParamFSBattPct:
		return float32(c.battFailsafeFrac * 100), true
	}
	return 0, false
}

// paramSet writes a parameter, clamping to hard safety bounds. Returns
// the value actually stored.
func (c *Controller) paramSet(name string, v float32) (float32, bool) {
	clamp64 := func(x, lo, hi float64) float64 { return math.Min(hi, math.Max(lo, x)) } //vet:allow hotpath non-escaping closure; conservative FuncLit rule
	switch name {
	case ParamWPNavSpeed:
		c.limits.MaxSpeedMS = clamp64(float64(v)/100, 0.5, 12)
	case ParamSpeedUp:
		c.limits.MaxClimbMS = clamp64(float64(v)/100, 0.5, 4)
	case ParamSpeedDown:
		c.limits.MaxDescentMS = clamp64(float64(v)/100, 0.3, 2.5)
	case ParamAngleMax:
		c.limits.MaxTiltRad = clamp64(float64(v)/100*math.Pi/180, 0.1, 0.6)
	case ParamRTLAlt:
		c.rtlAltM = clamp64(float64(v)/100, 2, 100)
	case ParamFSBattPct:
		c.battFailsafeFrac = clamp64(float64(v)/100, 0, 0.5)
		c.battFailsafed = false
	default:
		return 0, false
	}
	got, _ := c.paramGet(name)
	return got, true
}

// handleParam processes the MAVLink parameter protocol.
func (c *Controller) handleParam(msg mavlink.Message) []mavlink.Message {
	switch m := msg.(type) {
	case *mavlink.ParamRequestList:
		out := make([]mavlink.Message, 0, len(paramNames)) //vet:allow hotpath param-protocol reply; not the steady-state stream
		for i, name := range paramNames {
			v, _ := c.paramGet(name)
			out = append(out, &mavlink.ParamValue{ //vet:allow hotpath param-protocol reply; not the steady-state stream
				Value: v, ParamCount: uint16(len(paramNames)), ParamIndex: uint16(i),
				ParamID: name, ParamType: 9, // MAV_PARAM_TYPE_REAL32
			})
		}
		return out
	case *mavlink.ParamRequestRead:
		if v, ok := c.paramGet(m.ParamID); ok {
			return []mavlink.Message{&mavlink.ParamValue{ //vet:allow hotpath param-protocol reply; not the steady-state stream
				Value: v, ParamCount: uint16(len(paramNames)),
				ParamID: m.ParamID, ParamType: 9,
			}}
		}
		return nil
	case *mavlink.ParamSet:
		if v, ok := c.paramSet(m.ParamID, m.Value); ok {
			// MAVLink confirms a set by echoing the (possibly clamped)
			// stored value.
			return []mavlink.Message{&mavlink.ParamValue{ //vet:allow hotpath param-protocol reply; not the steady-state stream
				Value: v, ParamCount: uint16(len(paramNames)),
				ParamID: m.ParamID, ParamType: 9,
			}}
		}
		return nil
	}
	return nil
}
