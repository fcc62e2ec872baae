package binder

import (
	"errors"
	"slices"
	"testing"
)

// svcHandle registers an echo service owned by a fresh process in ns and
// returns that owner and client's handle to it.
func svcHandle(t *testing.T, ns *Namespace, client *Proc, name string) (*Proc, Handle) {
	t.Helper()
	owner := ns.Attach(1000)
	if _, _, err := owner.Transact(0, CodeAddService, []byte(name), []*Node{echoService(owner, name)}); err != nil {
		t.Fatal(err)
	}
	_, hs, err := client.Transact(0, CodeGetService, []byte(name), nil)
	if err != nil {
		t.Fatal(err)
	}
	return owner, hs[0]
}

func TestReleasedHandle(t *testing.T) {
	d := NewDriver()
	ns, _ := d.CreateNamespace("vd1")
	newTestManager(t, ns)
	client := ns.Attach(1000)
	owner, h := svcHandle(t, ns, client, "svc")
	fired := false
	if err := client.LinkToDeath(h, func() { fired = true }); err != nil {
		t.Fatal(err)
	}
	before := d.Footprint()
	if err := client.Release(h); err != nil {
		t.Fatal(err)
	}
	want := before
	want.Handles--
	want.Indexed--
	want.DeathLinks--
	want.HeldLinks--
	if got := d.Footprint(); got != want {
		t.Fatalf("footprint after release %+v, want %+v", got, want)
	}
	if _, _, err := client.Transact(h, CodeUser, nil, nil); !errors.Is(err, ErrReleased) {
		t.Fatalf("transact on released handle: %v, want ErrReleased", err)
	}
	if err := client.Release(h); !errors.Is(err, ErrReleased) {
		t.Fatalf("second release: %v, want ErrReleased", err)
	}
	if err := client.Release(99); !errors.Is(err, ErrBadHandle) {
		t.Fatalf("release of a never-held handle: %v, want ErrBadHandle", err)
	}
	owner.Exit()
	if fired {
		t.Fatal("death link fired after its handle was released")
	}
}

func TestDeadNodeHandleHeldUntilReleased(t *testing.T) {
	d := NewDriver()
	ns, _ := d.CreateNamespace("vd1")
	newTestManager(t, ns)
	client := ns.Attach(1000)
	owner, h := svcHandle(t, ns, client, "svc")
	owner.Exit()
	for i := 0; i < 2; i++ {
		if _, _, err := client.Transact(h, CodeUser, nil, nil); !errors.Is(err, ErrDeadNode) {
			t.Fatalf("held handle to a dead node: %v, want ErrDeadNode", err)
		}
	}
	if err := client.Release(h); err != nil {
		t.Fatal(err)
	}
	if _, _, err := client.Transact(h, CodeUser, nil, nil); !errors.Is(err, ErrReleased) {
		t.Fatalf("after release: %v, want ErrReleased", err)
	}
}

func TestHolderExitDropsItsLinks(t *testing.T) {
	d := NewDriver()
	ns, _ := d.CreateNamespace("vd1")
	newTestManager(t, ns)
	watcher := ns.Attach(1000)
	owner, h := svcHandle(t, ns, watcher, "svc")
	fired := false
	if err := watcher.LinkToDeath(h, func() { fired = true }); err != nil {
		t.Fatal(err)
	}
	if f := d.Footprint(); f.DeathLinks != 1 || f.HeldLinks != 1 {
		t.Fatalf("footprint %+v, want one link on each list", f)
	}
	watcher.Exit()
	if f := d.Footprint(); f.DeathLinks != 0 || f.HeldLinks != 0 {
		t.Fatalf("footprint after the holder exited %+v, want no links", f)
	}
	owner.Exit()
	if fired {
		t.Fatal("a dead holder's death link fired")
	}
}

// TestRemoveNamespaceExitsProcs removes a namespace holding two services
// that processes outside it and inside it watch: the outside links fire
// once each, in registration order, and the inside ones are dropped.
func TestRemoveNamespaceExitsProcs(t *testing.T) {
	d := NewDriver()
	gone, _ := d.CreateNamespace("vd-gone")
	newTestManager(t, gone)
	stay, _ := d.CreateNamespace("vd-stay")
	newTestManager(t, stay)
	inside := gone.Attach(1000)
	ownerA, hA := svcHandle(t, gone, inside, "a")
	_, hB := svcHandle(t, gone, inside, "b")

	// The outside watcher receives both nodes as objects, as a device
	// container's service receives a virtual drone's ActivityManager.
	outside := stay.Attach(1000)
	var fired []string
	for _, s := range []struct {
		h    Handle
		name string
	}{{hB, "b"}, {hA, "a"}, {hB, "b-again"}} {
		node, err := inside.NodeFor(s.h)
		if err != nil {
			t.Fatal(err)
		}
		d.mu.Lock()
		oh := outside.installLocked(node)
		d.mu.Unlock()
		name := s.name
		if err := outside.LinkToDeath(oh, func() { fired = append(fired, name) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := inside.LinkToDeath(hA, func() { fired = append(fired, "inside") }); err != nil {
		t.Fatal(err)
	}

	d.RemoveNamespace("vd-gone")
	if want := []string{"b", "a", "b-again"}; !slices.Equal(fired, want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	if _, _, err := inside.Transact(0, CodePing, nil, nil); !errors.Is(err, ErrDeadProc) {
		t.Fatalf("process of a removed namespace: %v, want ErrDeadProc", err)
	}
	ownerA.Exit() // already dead: no refire
	if len(fired) != 3 {
		t.Fatalf("refired: %v", fired)
	}
	f := d.Footprint()
	if f.Namespaces != 1 || f.DeathLinks != 0 || f.HeldLinks != 0 {
		t.Fatalf("footprint after removal %+v, want 1 namespace and no links", f)
	}
	// The outside holder keeps its handles, to dead nodes, until it
	// releases them.
	if f.Handles != 2 || f.Indexed != 2 {
		t.Fatalf("outside holder's handles = %d (indexed %d), want 2", f.Handles, f.Indexed)
	}
}
