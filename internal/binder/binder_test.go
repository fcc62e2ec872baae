package binder

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// testManager is a minimal ServiceManager used to exercise the driver: it
// speaks the context-manager protocol (AddService/GetService/ListServices).
type testManager struct {
	mu   sync.Mutex
	proc *Proc
	node *Node
	svcs map[string]*Node
	// addSenders records who performed each AddService, to verify the
	// driver's kernel-originated registrations.
	addSenders []Sender
}

func newTestManager(t *testing.T, ns *Namespace) *testManager {
	t.Helper()
	m := &testManager{svcs: make(map[string]*Node)}
	m.proc = ns.Attach(1000)
	m.node = m.proc.NewNode("servicemanager:"+ns.Name(), m.handle)
	if err := m.proc.BecomeContextManager(m.node); err != nil {
		t.Fatalf("BecomeContextManager(%s): %v", ns.Name(), err)
	}
	return m
}

func (m *testManager) handle(txn Txn) (Reply, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch txn.Code {
	case CodeAddService:
		if len(txn.Objects) != 1 {
			return Reply{}, fmt.Errorf("AddService: want 1 object, got %d", len(txn.Objects))
		}
		node, err := m.proc.NodeFor(txn.Objects[0])
		if err != nil {
			return Reply{}, err
		}
		m.svcs[string(txn.Data)] = node
		m.addSenders = append(m.addSenders, txn.Sender)
		return Reply{}, nil
	case CodeGetService:
		node, ok := m.svcs[string(txn.Data)]
		if !ok {
			return Reply{}, fmt.Errorf("no such service %q", txn.Data)
		}
		return Reply{Objects: []*Node{node}}, nil
	case CodeListServices:
		names := make([]string, 0, len(m.svcs))
		for name := range m.svcs {
			names = append(names, name)
		}
		return Reply{Data: []byte(strings.Join(names, ","))}, nil
	case CodePing:
		return Reply{}, nil
	}
	return Reply{}, fmt.Errorf("unknown code %d", txn.Code)
}

func echoService(p *Proc, name string) *Node {
	return p.NewNode(name, func(txn Txn) (Reply, error) {
		return Reply{Data: append([]byte(name+":"), txn.Data...)}, nil
	})
}

func TestContextManagerSingleton(t *testing.T) {
	d := NewDriver()
	ns, err := d.CreateNamespace("vd1")
	if err != nil {
		t.Fatal(err)
	}
	newTestManager(t, ns)
	p2 := ns.Attach(1000)
	n2 := p2.NewNode("usurper", nil)
	if err := p2.BecomeContextManager(n2); !errors.Is(err, ErrAlreadyManager) {
		t.Fatalf("second context manager: err = %v, want ErrAlreadyManager", err)
	}
}

func TestContextManagerMustOwnNode(t *testing.T) {
	d := NewDriver()
	ns, _ := d.CreateNamespace("vd1")
	p1 := ns.Attach(1000)
	p2 := ns.Attach(1000)
	n := p1.NewNode("svc", nil)
	if err := p2.BecomeContextManager(n); !errors.Is(err, ErrPermission) {
		t.Fatalf("foreign node as manager: err = %v, want ErrPermission", err)
	}
}

func TestHandleZeroResolvesPerNamespace(t *testing.T) {
	d := NewDriver()
	ns1, _ := d.CreateNamespace("vd1")
	ns2, _ := d.CreateNamespace("vd2")
	m1 := newTestManager(t, ns1)
	m2 := newTestManager(t, ns2)

	// Register a distinct service in each namespace.
	p1 := ns1.Attach(1000)
	p2 := ns2.Attach(1000)
	if _, _, err := p1.Transact(0, CodeAddService, []byte("camera"), []*Node{echoService(p1, "cam1")}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p2.Transact(0, CodeAddService, []byte("camera"), []*Node{echoService(p2, "cam2")}); err != nil {
		t.Fatal(err)
	}

	if _, ok := m1.svcs["camera"]; !ok {
		t.Fatal("vd1 manager missing camera")
	}
	if m1.svcs["camera"] == m2.svcs["camera"] {
		t.Fatal("namespaces share a service node; isolation broken")
	}

	// Each client gets its own namespace's node back.
	data, handles, err := p1.Transact(0, CodeGetService, []byte("camera"), nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = data
	if len(handles) != 1 {
		t.Fatalf("GetService returned %d handles, want 1", len(handles))
	}
	out, _, err := p1.Transact(handles[0], CodeUser, []byte("hello"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "cam1:hello" {
		t.Fatalf("vd1 client reached %q, want cam1", out)
	}
}

func TestNoManagerNoServices(t *testing.T) {
	d := NewDriver()
	ns, _ := d.CreateNamespace("vd1")
	p := ns.Attach(1000)
	if _, _, err := p.Transact(0, CodeGetService, []byte("camera"), nil); !errors.Is(err, ErrNoContextManager) {
		t.Fatalf("err = %v, want ErrNoContextManager", err)
	}
}

func TestTransactionCarriesSenderAndContainer(t *testing.T) {
	d := NewDriver()
	ns, _ := d.CreateNamespace("vd7")
	newTestManager(t, ns)
	p := ns.Attach(1234)

	var got Sender
	svc := p.NewNode("whoami", func(txn Txn) (Reply, error) {
		got = txn.Sender
		return Reply{}, nil
	})
	if _, _, err := p.Transact(0, CodeAddService, []byte("whoami"), []*Node{svc}); err != nil {
		t.Fatal(err)
	}
	_, hs, err := p.Transact(0, CodeGetService, []byte("whoami"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Transact(hs[0], CodeUser, nil, nil); err != nil {
		t.Fatal(err)
	}
	if got.Container != "vd7" {
		t.Errorf("sender container = %q, want vd7", got.Container)
	}
	if got.EUID != 1234 {
		t.Errorf("sender euid = %d, want 1234", got.EUID)
	}
	if got.PID != p.PID() {
		t.Errorf("sender pid = %d, want %d", got.PID, p.PID())
	}
}

func TestBadHandle(t *testing.T) {
	d := NewDriver()
	ns, _ := d.CreateNamespace("vd1")
	newTestManager(t, ns)
	p := ns.Attach(1000)
	if _, _, err := p.Transact(42, CodeUser, nil, nil); !errors.Is(err, ErrBadHandle) {
		t.Fatalf("err = %v, want ErrBadHandle", err)
	}
}

func TestDeadNode(t *testing.T) {
	d := NewDriver()
	ns, _ := d.CreateNamespace("vd1")
	newTestManager(t, ns)
	owner := ns.Attach(1000)
	client := ns.Attach(1000)
	if _, _, err := owner.Transact(0, CodeAddService, []byte("svc"), []*Node{echoService(owner, "svc")}); err != nil {
		t.Fatal(err)
	}
	_, hs, err := client.Transact(0, CodeGetService, []byte("svc"), nil)
	if err != nil {
		t.Fatal(err)
	}
	owner.Exit()
	if _, _, err := client.Transact(hs[0], CodeUser, nil, nil); !errors.Is(err, ErrDeadNode) {
		t.Fatalf("transact to dead node: err = %v, want ErrDeadNode", err)
	}
}

func TestExitedProcCannotTransact(t *testing.T) {
	d := NewDriver()
	ns, _ := d.CreateNamespace("vd1")
	newTestManager(t, ns)
	p := ns.Attach(1000)
	p.Exit()
	if _, _, err := p.Transact(0, CodePing, nil, nil); !errors.Is(err, ErrDeadProc) {
		t.Fatalf("err = %v, want ErrDeadProc", err)
	}
}

func TestHandleReuseForSameNode(t *testing.T) {
	// Receiving the same node twice yields the same handle (reference
	// identity preserved).
	d := NewDriver()
	ns, _ := d.CreateNamespace("vd1")
	newTestManager(t, ns)
	p := ns.Attach(1000)
	if _, _, err := p.Transact(0, CodeAddService, []byte("svc"), []*Node{echoService(p, "svc")}); err != nil {
		t.Fatal(err)
	}
	_, h1, err := p.Transact(0, CodeGetService, []byte("svc"), nil)
	if err != nil {
		t.Fatal(err)
	}
	_, h2, err := p.Transact(0, CodeGetService, []byte("svc"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if h1[0] != h2[0] {
		t.Fatalf("same node produced different handles: %d vs %d", h1[0], h2[0])
	}
}

func setupDevcon(t *testing.T) (*Driver, *testManager, *Proc) {
	t.Helper()
	d := NewDriver()
	dns, err := d.CreateNamespace("devcon")
	if err != nil {
		t.Fatal(err)
	}
	d.SetDeviceNamespace(dns)
	m := newTestManager(t, dns)
	p := dns.Attach(1000)
	return d, m, p
}

func TestPublishToAllNS(t *testing.T) {
	d, devMgr, devProc := setupDevcon(t)

	// Register a sensor service inside the device container.
	sensor := echoService(devProc, "sensorservice")
	if _, _, err := devProc.Transact(0, CodeAddService, []byte("sensorservice"), []*Node{sensor}); err != nil {
		t.Fatal(err)
	}
	_, hs, err := devProc.Transact(0, CodeGetService, []byte("sensorservice"), nil)
	if err != nil {
		t.Fatal(err)
	}

	// Two virtual drones already running.
	ns1, _ := d.CreateNamespace("vd1")
	ns2, _ := d.CreateNamespace("vd2")
	m1 := newTestManager(t, ns1)
	m2 := newTestManager(t, ns2)

	if err := devProc.PublishToAllNS("sensorservice", hs[0]); err != nil {
		t.Fatal(err)
	}

	for i, m := range []*testManager{m1, m2} {
		if m.svcs["sensorservice"] != devMgr.svcs["sensorservice"] {
			t.Errorf("vd%d did not receive the device container's sensorservice node", i+1)
		}
	}
	// Registrations performed by the driver come from the kernel.
	if len(m1.addSenders) == 0 || m1.addSenders[0].Container != "<kernel>" {
		t.Errorf("publish registration sender = %+v, want kernel", m1.addSenders)
	}

	// A virtual drone app can now reach the shared service via its own
	// ServiceManager, transparently.
	app := ns1.Attach(10001)
	_, appHs, err := app.Transact(0, CodeGetService, []byte("sensorservice"), nil)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := app.Transact(appHs[0], CodeUser, []byte("read"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "sensorservice:read" {
		t.Fatalf("cross-container call returned %q", out)
	}
}

func TestPublishToAllNSReachesFutureNamespaces(t *testing.T) {
	d, _, devProc := setupDevcon(t)
	svc := echoService(devProc, "cameraservice")
	if _, _, err := devProc.Transact(0, CodeAddService, []byte("cameraservice"), []*Node{svc}); err != nil {
		t.Fatal(err)
	}
	_, hs, _ := devProc.Transact(0, CodeGetService, []byte("cameraservice"), nil)
	if err := devProc.PublishToAllNS("cameraservice", hs[0]); err != nil {
		t.Fatal(err)
	}

	// A virtual drone created after the publish still receives the service
	// when its ServiceManager registers.
	ns3, _ := d.CreateNamespace("vd3")
	m3 := newTestManager(t, ns3)
	if _, ok := m3.svcs["cameraservice"]; !ok {
		t.Fatal("future namespace did not receive published service")
	}
}

func TestPublishToAllNSSecurity(t *testing.T) {
	d, _, _ := setupDevcon(t)
	ns1, _ := d.CreateNamespace("vd1")
	newTestManager(t, ns1)
	rogue := ns1.Attach(10001)
	evil := echoService(rogue, "evil")
	if _, _, err := rogue.Transact(0, CodeAddService, []byte("evil"), []*Node{evil}); err != nil {
		t.Fatal(err)
	}
	_, hs, _ := rogue.Transact(0, CodeGetService, []byte("evil"), nil)
	if err := rogue.PublishToAllNS("evil", hs[0]); !errors.Is(err, ErrPermission) {
		t.Fatalf("virtual drone called PUBLISH_TO_ALL_NS: err = %v, want ErrPermission", err)
	}
}

func TestPublishToAllNSRequiresDevconDesignation(t *testing.T) {
	d := NewDriver()
	ns, _ := d.CreateNamespace("notdevcon")
	newTestManager(t, ns)
	p := ns.Attach(1000)
	svc := echoService(p, "svc")
	if _, _, err := p.Transact(0, CodeAddService, []byte("svc"), []*Node{svc}); err != nil {
		t.Fatal(err)
	}
	_, hs, _ := p.Transact(0, CodeGetService, []byte("svc"), nil)
	if err := p.PublishToAllNS("svc", hs[0]); !errors.Is(err, ErrPermission) {
		t.Fatalf("err = %v, want ErrPermission", err)
	}
}

func TestPublishToDevCon(t *testing.T) {
	d, devMgr, _ := setupDevcon(t)
	ns1, _ := d.CreateNamespace("vd1")
	newTestManager(t, ns1)

	// vd1's ActivityManager registers itself; its ServiceManager calls
	// PUBLISH_TO_DEV_CON.
	amProc := ns1.Attach(1000)
	am := echoService(amProc, "activity")
	if _, _, err := amProc.Transact(0, CodeAddService, []byte("activity"), []*Node{am}); err != nil {
		t.Fatal(err)
	}
	_, hs, _ := amProc.Transact(0, CodeGetService, []byte("activity"), nil)
	if err := amProc.PublishToDevCon("activity", hs[0]); err != nil {
		t.Fatal(err)
	}

	want := ScopedName("activity", "vd1")
	if _, ok := devMgr.svcs[want]; !ok {
		t.Fatalf("device container manager missing %q; has %v", want, keys(devMgr.svcs))
	}

	// A device service in the device container can now call back into vd1's
	// ActivityManager for a permission check.
	devSvc := d.devcon.Attach(1000)
	_, amHs, err := devSvc.Transact(0, CodeGetService, []byte(want), nil)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := devSvc.Transact(amHs[0], CodeUser, []byte("checkPermission"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "activity:checkPermission" {
		t.Fatalf("callback returned %q", out)
	}
}

func TestPublishToDevConRejectsDevcon(t *testing.T) {
	_, _, devProc := setupDevcon(t)
	svc := echoService(devProc, "svc")
	if _, _, err := devProc.Transact(0, CodeAddService, []byte("svc"), []*Node{svc}); err != nil {
		t.Fatal(err)
	}
	_, hs, _ := devProc.Transact(0, CodeGetService, []byte("svc"), nil)
	if err := devProc.PublishToDevCon("svc", hs[0]); !errors.Is(err, ErrPermission) {
		t.Fatalf("err = %v, want ErrPermission", err)
	}
}

func TestCreateNamespaceDuplicate(t *testing.T) {
	d := NewDriver()
	if _, err := d.CreateNamespace("vd1"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.CreateNamespace("vd1"); err == nil {
		t.Fatal("duplicate namespace accepted")
	}
}

func TestNamespacesListing(t *testing.T) {
	d := NewDriver()
	for _, n := range []string{"a", "b", "c"} {
		if _, err := d.CreateNamespace(n); err != nil {
			t.Fatal(err)
		}
	}
	d.RemoveNamespace("b")
	for _, n := range []string{"a", "b", "c"} {
		if _, ok := d.LookupNamespace(n); ok != (n != "b") {
			t.Fatalf("after removing b, LookupNamespace(%q) found = %v", n, ok)
		}
	}
}

func TestConcurrentTransactions(t *testing.T) {
	d := NewDriver()
	ns, _ := d.CreateNamespace("vd1")
	newTestManager(t, ns)
	owner := ns.Attach(1000)
	var mu sync.Mutex
	count := 0
	svc := owner.NewNode("counter", func(txn Txn) (Reply, error) {
		mu.Lock()
		count++
		mu.Unlock()
		return Reply{}, nil
	})
	if _, _, err := owner.Transact(0, CodeAddService, []byte("counter"), []*Node{svc}); err != nil {
		t.Fatal(err)
	}

	const goroutines, calls = 8, 50
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := ns.Attach(2000)
			_, hs, err := p.Transact(0, CodeGetService, []byte("counter"), nil)
			if err != nil {
				t.Error(err)
				return
			}
			for j := 0; j < calls; j++ {
				if _, _, err := p.Transact(hs[0], CodeUser, nil, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if count != goroutines*calls {
		t.Fatalf("count = %d, want %d", count, goroutines*calls)
	}
}

func TestScopedName(t *testing.T) {
	if got := ScopedName("activity", "vd1"); got != "activity:vd1" {
		t.Fatalf("ScopedName = %q", got)
	}
}

func keys(m map[string]*Node) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestLinkToDeath(t *testing.T) {
	d := NewDriver()
	ns, _ := d.CreateNamespace("vd1")
	newTestManager(t, ns)
	owner := ns.Attach(1000)
	watcher := ns.Attach(1000)
	if _, _, err := owner.Transact(0, CodeAddService, []byte("svc"), []*Node{echoService(owner, "svc")}); err != nil {
		t.Fatal(err)
	}
	_, hs, err := watcher.Transact(0, CodeGetService, []byte("svc"), nil)
	if err != nil {
		t.Fatal(err)
	}
	fired := 0
	if err := watcher.LinkToDeath(hs[0], func() { fired++ }); err != nil {
		t.Fatal(err)
	}
	if fired != 0 {
		t.Fatal("premature death notification")
	}
	owner.Exit()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	// Double exit does not re-fire.
	owner.Exit()
	if fired != 1 {
		t.Fatalf("re-fired: %d", fired)
	}
}

func TestLinkToDeathBadHandle(t *testing.T) {
	d := NewDriver()
	ns, _ := d.CreateNamespace("vd1")
	p := ns.Attach(1000)
	if err := p.LinkToDeath(42, func() {}); !errors.Is(err, ErrBadHandle) {
		t.Fatalf("err = %v", err)
	}
}

func TestTransactionSizeLimit(t *testing.T) {
	d := NewDriver()
	ns, _ := d.CreateNamespace("vd1")
	newTestManager(t, ns)
	p := ns.Attach(1000)
	big := make([]byte, MaxTransactionBytes+1)
	if _, _, err := p.Transact(0, CodePing, big, nil); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized transaction: %v, want ErrTooLarge", err)
	}
	// Exactly at the limit is fine.
	ok := make([]byte, MaxTransactionBytes)
	if _, _, err := p.Transact(0, CodePing, ok, nil); err != nil {
		t.Fatalf("limit-sized transaction: %v", err)
	}
}
