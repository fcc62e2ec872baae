// Race coverage for the copy-on-write hot paths. The fleet work made
// Transact and handle resolution lock-free (snapshots behind
// atomic.Pointer) while namespace creation and the publish ioctls still
// serialize on Driver.mu and swap fresh snapshots in. These tests hammer
// both sides at once so `go test -race` validates the swap ordering: a
// reader must only ever observe a fully-built table, old or new.

package binder

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestRaceTransactVsNamespaceChurn runs a steady stream of transactions
// against one namespace while other goroutines create and remove
// namespaces — the driver-level table swap racing the lock-free lookup.
func TestRaceTransactVsNamespaceChurn(t *testing.T) {
	d := NewDriver()
	ns, err := d.CreateNamespace("vd-stable")
	if err != nil {
		t.Fatal(err)
	}
	newTestManager(t, ns)
	owner := ns.Attach(1000)
	var hits atomic.Int64
	svc := owner.NewNode("echo", func(txn Txn) (Reply, error) {
		hits.Add(1)
		return Reply{Data: txn.Data}, nil
	})
	if _, _, err := owner.Transact(0, CodeAddService, []byte("echo"), []*Node{svc}); err != nil {
		t.Fatal(err)
	}

	const senders, churners, iters = 4, 2, 200
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := ns.Attach(2000)
			_, hs, err := p.Transact(0, CodeGetService, []byte("echo"), nil)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < iters; i++ {
				if _, _, err := p.Transact(hs[0], CodeUser, []byte("ping"), nil); err != nil {
					t.Error(err)
					return
				}
				// Lock-free namespace lookup racing the churn below.
				if _, ok := d.LookupNamespace("vd-stable"); !ok {
					t.Error("stable namespace vanished")
					return
				}
			}
		}()
	}
	for c := 0; c < churners; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				name := fmt.Sprintf("vd-churn-%d-%d", c, i)
				if _, err := d.CreateNamespace(name); err != nil {
					t.Error(err)
					return
				}
				d.RemoveNamespace(name)
			}
		}(c)
	}
	wg.Wait()
	if got := hits.Load(); got != senders*iters {
		t.Fatalf("service saw %d transactions, want %d", got, senders*iters)
	}
}

// TestRaceTransactVsPublish races the publish ioctls (which install
// handles into every namespace's manager under Driver.mu) against
// lock-free transactions and fresh namespace registration.
func TestRaceTransactVsPublish(t *testing.T) {
	d, _, devProc := setupDevcon(t)

	// Device services to publish, pre-registered in the device container.
	const services = 8
	handles := make([]Handle, services)
	for i := 0; i < services; i++ {
		name := fmt.Sprintf("dev%d", i)
		svc := echoService(devProc, name)
		if _, _, err := devProc.Transact(0, CodeAddService, []byte(name), []*Node{svc}); err != nil {
			t.Fatal(err)
		}
		_, hs, err := devProc.Transact(0, CodeGetService, []byte(name), nil)
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = hs[0]
	}

	ns, err := d.CreateNamespace("vd1")
	if err != nil {
		t.Fatal(err)
	}
	newTestManager(t, ns)

	var wg sync.WaitGroup
	// Publisher: alternate PublishToAllNS and PublishToDevCon.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < services; i++ {
			name := fmt.Sprintf("dev%d", i)
			if err := devProc.PublishToAllNS(name, handles[i]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// Namespace creator: managers registering mid-publish must still
	// receive every already-published service.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			nsi, err := d.CreateNamespace(fmt.Sprintf("vd-late-%d", i))
			if err != nil {
				t.Error(err)
				return
			}
			newTestManager(t, nsi)
		}
	}()
	// Transactors: hammer the stable namespace's manager throughout.
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := ns.Attach(3000)
			for i := 0; i < 200; i++ {
				if _, _, err := p.Transact(0, CodePing, nil, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	// After the dust settles every published service must be reachable
	// from the stable namespace.
	p := ns.Attach(3001)
	for i := 0; i < services; i++ {
		name := fmt.Sprintf("dev%d", i)
		_, hs, err := p.Transact(0, CodeGetService, []byte(name), nil)
		if err != nil {
			t.Fatalf("service %s not visible after publish: %v", name, err)
		}
		out, _, err := p.Transact(hs[0], CodeUser, []byte("x"), nil)
		if err != nil {
			t.Fatal(err)
		}
		if string(out) != name+":x" {
			t.Fatalf("service %s echoed %q", name, out)
		}
	}
}

// TestRaceTransactVsExit races process death against transactions bound
// for the dying process's node: every call must either succeed or fail
// with a dead-node/dead-proc error, never tear.
func TestRaceTransactVsExit(t *testing.T) {
	d := NewDriver()
	ns, err := d.CreateNamespace("vd1")
	if err != nil {
		t.Fatal(err)
	}
	newTestManager(t, ns)
	for round := 0; round < 20; round++ {
		owner := ns.Attach(1000)
		name := fmt.Sprintf("ephemeral-%d", round)
		svc := echoService(owner, name)
		if _, _, err := owner.Transact(0, CodeAddService, []byte(name), []*Node{svc}); err != nil {
			t.Fatal(err)
		}
		caller := ns.Attach(2000)
		_, hs, err := caller.Transact(0, CodeGetService, []byte(name), nil)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_, _, err := caller.Transact(hs[0], CodeUser, nil, nil)
				if err != nil {
					return // dead node: the expected terminal outcome
				}
			}
		}()
		go func() {
			defer wg.Done()
			owner.Exit()
		}()
		wg.Wait()
	}
}

// TestRaceRemoveNamespaceVsLifetimes removes a virtual drone's namespace,
// whose death callbacks run outside Driver.mu, while a device-container
// process makes permission-style lookups of the drone's ActivityManager
// (GetService, LinkToDeath, a data-only call, Release), the drone's own
// client transacts with it, and a bystander transacts in a namespace that
// stays. Every call must succeed or fail with a lifetime error, and the
// device-container process must end holding no handle and no link.
func TestRaceRemoveNamespaceVsLifetimes(t *testing.T) {
	d, _, checker := setupDevcon(t)
	stable, err := d.CreateNamespace("vd-stable")
	if err != nil {
		t.Fatal(err)
	}
	newTestManager(t, stable)
	bystander := stable.Attach(1000)
	_, echo := svcHandle(t, stable, bystander, "echo")

	lifetimeErr := func(err error) bool {
		return errors.Is(err, ErrDeadNode) || errors.Is(err, ErrDeadProc) || errors.Is(err, ErrReleased)
	}
	for round := 0; round < 20; round++ {
		name := fmt.Sprintf("vd-%d", round)
		ns, err := d.CreateNamespace(name)
		if err != nil {
			t.Fatal(err)
		}
		newTestManager(t, ns)
		amProc := ns.Attach(1000)
		am := echoService(amProc, "activity")
		if _, _, err := amProc.Transact(0, CodeAddService, []byte("activity"), []*Node{am}); err != nil {
			t.Fatal(err)
		}
		_, hs, err := amProc.Transact(0, CodeGetService, []byte("activity"), nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := amProc.PublishToDevCon("activity", hs[0]); err != nil {
			t.Fatal(err)
		}
		own := hs[0]
		scoped := []byte(ScopedName("activity", name))

		var wg sync.WaitGroup
		wg.Add(4)
		go func() { // the device container's permission checks
			defer wg.Done()
			for {
				_, hs, err := checker.Transact(0, CodeGetService, scoped, nil)
				if err != nil {
					t.Error(err)
					return
				}
				h := hs[0]
				if err := checker.LinkToDeath(h, func() { _ = checker.Release(h) }); err != nil {
					if !lifetimeErr(err) {
						t.Error(err)
					}
					_ = checker.Release(h)
					return
				}
				_, _, err = checker.Transact(h, CodeUser, []byte("check"), nil)
				if rerr := checker.Release(h); rerr != nil && !errors.Is(rerr, ErrReleased) {
					t.Error(rerr)
				}
				if err != nil {
					if !lifetimeErr(err) {
						t.Error(err)
					}
					return
				}
			}
		}()
		go func() { // the drone's own client
			defer wg.Done()
			for {
				if _, _, err := amProc.Transact(own, CodeUser, nil, nil); err != nil {
					if !lifetimeErr(err) {
						t.Error(err)
					}
					return
				}
			}
		}()
		go func() { // a bystander in a namespace that stays
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, _, err := bystander.Transact(echo, CodeUser, []byte("x"), nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			d.RemoveNamespace(name)
		}()
		wg.Wait()
	}
	d.mu.Lock()
	handles, indexed, held := len(*checker.handles.Load()), len(checker.index), len(checker.held)
	d.mu.Unlock()
	if handles != 0 || indexed != 0 || held != 0 {
		t.Fatalf("checker ends holding %d handles (%d indexed) and %d links, want none", handles, indexed, held)
	}
}
