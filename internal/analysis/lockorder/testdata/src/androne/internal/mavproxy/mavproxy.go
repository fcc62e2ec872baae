// Package mavproxy is a fixture at the real mavproxy path so the
// sanctioned hot-path lock list applies: VFC.mu is on the reviewed list,
// and sharing it between the hot loop and tenant-reachable code must stay
// silent even though the same shape on any other lock is convicted.
package mavproxy

import "sync"

type VFC struct {
	mu    sync.Mutex
	state int
}

//vet:hotpath fixture: the VFC serial endpoint's sanctioned lock
func (v *VFC) Send() {
	v.mu.Lock()
	v.state++
	v.mu.Unlock()
}

// Snapshot is tenant-reachable through critbad's portal handler and takes
// the same sanctioned lock: still silent.
func (v *VFC) Snapshot() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.state
}
