// Package critbad exercises the critical-path blocking contract: a
// //vet:hotpath-rooted function acquiring a lock that tenant-reachable
// code (a binder transaction handler, a portal HTTP handler) also holds
// is convicted unless the lock is on the sanctioned hot-path list. The
// hot-only mutex and the sanctioned VFC lock prove the silent side.
package critbad

import (
	"net/http"
	"sync"

	"androne/internal/binder"
	"androne/internal/mavproxy"
)

// Engine's mu is shared between the hot loop and the binder handler; omu
// is hot-only and must stay silent.
type Engine struct {
	mu   sync.Mutex
	omu  sync.Mutex
	hits int
}

var (
	eng Engine
	ctl mavproxy.VFC
)

//vet:hotpath fixture: the flight-critical loop
func Step() {
	eng.mu.Lock() // want `flight-critical path from Step acquires critbad.Engine.mu, which tenant-reachable code also holds \(HandleStat via HandleStat`
	eng.hits++
	eng.mu.Unlock()
	eng.omu.Lock() // hot-only, no tenant overlap: silent
	eng.omu.Unlock()
	ctl.Send() // sanctioned VFC lock: silent
}

// HandleStat matches the binder Handler signature, so it is a tenant
// entry: every lock below it is tenant-reachable.
func HandleStat(txn binder.Txn) (binder.Reply, error) {
	eng.mu.Lock()
	eng.hits++
	eng.mu.Unlock()
	return binder.Reply{Status: 0}, nil
}

// Web's wmu is shared between a portal HTTP handler and a hot root.
type Web struct {
	wmu sync.Mutex
}

var web Web

func ServeStat(w http.ResponseWriter, r *http.Request) {
	web.wmu.Lock()
	web.wmu.Unlock()
	_ = ctl.Snapshot()
}

//vet:hotpath fixture: a second hot root sharing the portal's mutex
func Flush() {
	web.wmu.Lock() // want `flight-critical path from Flush acquires critbad.Web.wmu, which tenant-reachable code also holds \(ServeStat via ServeStat`
	web.wmu.Unlock()
}
