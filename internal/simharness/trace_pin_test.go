package simharness

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"
)

// pinnedTraceHashes pins every builtin and sabotaged scenario's result:
// sha256 over Trace(), the violation lines and the tick count. Both modes
// must hash to the same pin.
// A refactor of the flight workflow must leave every entry untouched; a
// deliberate behaviour change re-pins the affected rows and says why.
var pinnedTraceHashes = map[string]string{
	"survey-baseline":    "e395564df7083567eda50f7705ac65af9ef1b454a0ee14280b07b9b24a94fcdd",
	"multi-tenant":       "e2a4235ce69dbfdd2c19087ac9555a8e7c2aaa97076a912c02e108b864627034",
	"breach-loiter":      "ea5ac3042d72d7c006715ef4cef0add995369725caa39f11fc76b21787837334",
	"motor-degraded":     "1cb53b18c4780e37c1c29d22023be8771dca1fde861489b85faafcee717e07e6",
	"squall":             "df5f208060d3cf02ac1439db6c4c53972c5c880aac26a250e34395cca833d900",
	"lossy-gcs":          "e150f6ce9cdd051a3bd1183f1ba8a5577bbf18fb08505e7e50dee97a78b1443d",
	"revoked-midflight":  "76737bcd259e55206321d307bf621341fe92290687f340bbbbb0d7a9373a283e",
	"save-restore":       "5987b0a4c950ebd2fca5d9b081b5373a5429ca19703813f9484d1fbad577777b",
	"duty-cycle":         "db27621cb0bad9186624d543c63c6e5c059bd945cc9edb37752faa06bea0c1c6",
	"sabotage-whitelist": "dad7fc58b8fc9d90d3659aee9415f81db210f5938e18929858c5569444016603",
	"sabotage-allotment": "e9374fb8753a90f7cd84d918dab5dec09935ba60500b3e5f6a4439d190032fd5",
}

// resultHash is the pinned digest of one run.
func resultHash(res *Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s%s%d", res.Trace(), violationLines(res), res.Ticks)
	return hex.EncodeToString(h.Sum(nil))
}

// TestTraceHashesPinned runs every builtin and sabotaged scenario in both
// modes and compares each result against its pinned hash. The pins are
// amd64 values: other architectures may fuse multiply-adds (FMA), which
// changes float low bits and with them the traces, so the test skips there.
func TestTraceHashesPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("trace pins are amd64 values; FMA fusion elsewhere changes float bits")
	}
	modes := []struct {
		name string
		mode Mode
	}{{"lockstep", ModeLockstep}, {"event", ModeEvent}}
	for _, sc := range append(Builtins(), Sabotaged()...) {
		for _, m := range modes {
			sc, m := sc, m
			t.Run(sc.Name+"/"+m.name, func(t *testing.T) {
				t.Parallel()
				res, err := RunScenarioMode(sc, m.mode)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := resultHash(res), pinnedTraceHashes[sc.Name]; got != want {
					t.Errorf("hash %s, pinned %s", got, want)
				}
			})
		}
	}
}
