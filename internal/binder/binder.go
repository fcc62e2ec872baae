// Package binder models Android's Binder inter-process communication
// mechanism at the level AnDrone modifies it: nodes referenced by
// per-process integer handles, one Context Manager per device namespace
// (reachable as handle 0), synchronous transactions that carry the calling
// process' PID, EUID, and — AnDrone's addition — container identifier, and
// the two new ioctls the paper introduces:
//
//   - PUBLISH_TO_ALL_NS: callable only by the device container, registers a
//     device-container service with the Context Manager of every other
//     namespace (present and future);
//   - PUBLISH_TO_DEV_CON: registers a container's ActivityManager with the
//     device container's Context Manager under a name suffixed with the
//     container identifier, so device services can route permission checks
//     back to the calling container.
//
// Binder inherently provides isolation: no communication can occur without
// first obtaining a handle, and handles can only be obtained from the
// Context Manager (handle 0) or passed in a transaction by someone who
// already holds one. The device-namespace extension scopes handle 0 per
// container, so each virtual drone sees only its own ServiceManager.
//
// Object lifetimes follow the Android driver's reference rules, so that
// tearing a container down frees what it held:
//   - removing a namespace exits every process attached in it;
//   - a process's exit kills its nodes, fires the death links other
//     processes registered against them, and drops the links it registered
//     itself (a dead holder is told nothing);
//   - a handle stays in its holder's table, answering ErrDeadNode once its
//     node dies, until the holder releases it (Release, BC_RELEASE);
//     releasing also drops the holder's death links through that handle.
//
// Concurrency model (see DESIGN.md "Fleet scaling & hot-path concurrency"):
// the read-mostly structures a transaction touches — the namespace table,
// each namespace's context manager, and each process' handle table — are
// copy-on-write snapshots behind atomic.Pointer. The data-only Transact
// fast path takes no lock at all; every mutation (namespace churn, handle
// installation, process exit) still serializes on Driver.mu and publishes a
// fresh snapshot, so readers observe either the old table or the new one,
// never a half-built map.
package binder

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"androne/internal/telemetry"
)

// Handle is a per-process reference to a node. Handle 0 always refers to the
// Context Manager of the process' namespace.
type Handle uint32

// ContextManagerHandle is the well-known handle of the namespace's Context
// Manager.
const ContextManagerHandle Handle = 0

// MaxTransactionBytes is the Binder transaction buffer limit (1 MB per
// process in Android, minus bookkeeping). Oversized payloads fail with
// ErrTooLarge, as TransactionTooLargeException does.
const MaxTransactionBytes = 1 << 20

// Context Manager protocol transaction codes. These mirror Android's
// servicemanager protocol; the driver itself speaks AddService when
// executing PUBLISH_TO_ALL_NS, so the codes are defined here rather than in
// the userspace layer.
const (
	CodeAddService uint32 = iota + 1
	CodeGetService
	CodeCheckService
	CodeListServices
	// CodePing is a liveness probe any node should answer.
	CodePing
	// CodeUser is the first code available to user-defined services.
	CodeUser uint32 = 64
)

// Errors returned by driver operations.
var (
	ErrDeadNode         = errors.New("binder: node owner has exited")
	ErrBadHandle        = errors.New("binder: bad handle")
	ErrNoContextManager = errors.New("binder: namespace has no context manager")
	ErrAlreadyManager   = errors.New("binder: namespace already has a context manager")
	ErrPermission       = errors.New("binder: permission denied")
	ErrDeadProc         = errors.New("binder: process has exited")
	ErrTooLarge         = errors.New("binder: transaction exceeds buffer size")
	ErrReleased         = errors.New("binder: handle has been released")
)

// Sender identifies the originator of a transaction. Container is AnDrone's
// addition to the transaction data structure.
type Sender struct {
	PID       int
	EUID      int
	Container string
}

// Txn is a transaction delivered to a node's handler. Objects passed by the
// sender appear as handles valid in the receiving process.
type Txn struct {
	Code    uint32
	Data    []byte
	Objects []Handle
	Sender  Sender
}

// Reply is the synchronous result of a transaction. Objects are node
// references that the driver translates into handles in the caller's
// process.
type Reply struct {
	Data    []byte
	Objects []*Node
}

// Handler services transactions sent to a node. It runs in the context of
// the node's owning process: object handles in the Txn are valid there.
type Handler func(txn Txn) (Reply, error)

// Node is a Binder object: a service endpoint owned by a process. All
// fields are set at construction and never written again, which is what
// lets the lock-free transaction path read them without synchronization.
type Node struct {
	id    uint64
	name  string // debug label
	owner *Proc
	h     Handler
}

// Name returns the node's debug label.
func (n *Node) Name() string { return n.name }

// Namespace is a Binder device namespace. Each container gets one, so each
// container has its own Context Manager and service registry.
type Namespace struct {
	driver *Driver
	name   string
	key    telemetry.Key // interned name, cached for zero-cost emission
	// mgr is the context manager node. Handle-0 resolution on the
	// transaction fast path loads it with no lock; BecomeContextManager
	// stores it under driver.mu.
	mgr atomic.Pointer[Node]
	// procs are the live processes attached here, each at its procIdx.
	// Guarded by driver.mu.
	procs []*Proc
}

// Name returns the namespace (container) identifier.
func (ns *Namespace) Name() string { return ns.name }

// Proc is a process attached to the Binder driver within a namespace.
// pid, euid, ns, and driver are immutable after Attach.
type Proc struct {
	driver *Driver
	ns     *Namespace
	pid    int
	euid   int
	dead   atomic.Bool
	// next is the next free handle. Handles are never reused, so a handle
	// below next that is absent from the table was released. Written under
	// driver.mu; atomic so resolve's error path can read it without one.
	next atomic.Uint32
	// handles is the copy-on-write snapshot of the handle table: the
	// transaction fast path loads and indexes it with no lock; mutations
	// clone the map, add the entry, and swap the pointer under driver.mu.
	handles atomic.Pointer[map[Handle]*Node]

	// The rest is guarded by driver.mu. index maps each node in the handle
	// table to its handle. held are the death links p registered, each at
	// its heldIdx; obits, oldest first, are those registered against p's
	// nodes, and lastObit is the newest. procIdx is p's place in ns.procs.
	index           map[*Node]Handle
	held            []*deathLink
	obits, lastObit *deathLink
	procIdx         int
}

// PID returns the process id.
func (p *Proc) PID() int { return p.pid }

// EUID returns the effective uid.
func (p *Proc) EUID() int { return p.euid }

// Namespace returns the namespace the process is attached in.
func (p *Proc) Namespace() *Namespace { return p.ns }

// Driver is the Binder "kernel driver": the authority on namespaces, nodes,
// handle tables, and the AnDrone publish ioctls.
type Driver struct {
	mu       sync.Mutex
	nextNode uint64
	nextPID  int
	// namespaces is the copy-on-write snapshot of name → namespace.
	// Lookups load and index it with no lock; CreateNamespace and
	// RemoveNamespace clone-then-swap under d.mu.
	namespaces atomic.Pointer[map[string]*Namespace]
	devcon     *Namespace // the device container's namespace, if designated
	// published records PUBLISH_TO_ALL_NS registrations so they can be
	// replayed into namespaces created later ("the same process will be
	// performed in the future for any newly created virtual drone
	// containers").
	published []publishedService
	// nextLink numbers death links in registration order.
	nextLink uint64
	// tel is the drone's flight recorder; nil when running without one.
	// Set before use (SetRecorder), never written afterwards.
	tel *telemetry.Recorder
	// txns shards mTransactions across cache-line-padded atomic cells.
	// Transact is the hot ioctl and takes no lock, so a LocalCount (which
	// needs an owning mutex) cannot count it; the sharded cells keep
	// parallel callers off each other's cache lines. FlushMetrics folds
	// the batch in.
	txns *telemetry.ShardedCount
}

// deathLink is one Binder death notification: fn runs when the owner of
// the node behind the holder's handle h exits. It sits on two lists, the
// owner's obits and the holder's held, so that either side's exit or a
// release unlinks it in O(1).
type deathLink struct {
	seq        uint64
	holder     *Proc
	owner      *Proc
	h          Handle
	fn         func()
	prev, next *deathLink // neighbours on owner's obits
	heldIdx    int
}

type publishedService struct {
	name string
	node *Node
}

// NewDriver creates an empty Binder driver.
func NewDriver() *Driver {
	d := &Driver{
		nextPID: 100,
		txns:    mTransactions.Sharded(),
	}
	empty := make(map[string]*Namespace)
	d.namespaces.Store(&empty)
	return d
}

// CreateNamespace creates a device namespace for a container. Services
// previously published with PUBLISH_TO_ALL_NS are delivered to the new
// namespace's context manager as soon as one registers.
func (d *Driver) CreateNamespace(name string) (*Namespace, error) {
	key := telemetry.K(name) // intern outside d.mu: K takes its own lock
	d.mu.Lock()
	defer d.mu.Unlock()
	cur := *d.namespaces.Load()
	if _, ok := cur[name]; ok {
		return nil, fmt.Errorf("binder: namespace %q already exists", name)
	}
	ns := &Namespace{driver: d, name: name, key: key}
	next := make(map[string]*Namespace, len(cur)+1)
	for k, v := range cur { //vet:allow detguard copy-on-write map clone; order-independent
		next[k] = v
	}
	next[name] = ns
	d.namespaces.Store(&next)
	return ns, nil
}

// RemoveNamespace tears down a container's namespace: every process
// attached in it exits, as if the container's init had died, so all nodes
// they own become dead. Death links registered from outside the namespace
// against those nodes fire after the driver lock is released, in
// registration order; links the namespace's processes held are dropped.
func (d *Driver) RemoveNamespace(name string) {
	d.mu.Lock()
	cur := *d.namespaces.Load()
	ns, ok := cur[name]
	if !ok {
		d.mu.Unlock()
		return
	}
	next := make(map[string]*Namespace, len(cur))
	for k, v := range cur { //vet:allow detguard copy-on-write map clone; order-independent
		if k != name {
			next[k] = v
		}
	}
	d.namespaces.Store(&next)
	fire := d.exitLocked(ns.procs)
	ns.procs = nil
	d.mu.Unlock()
	for _, l := range fire {
		l.fn()
	}
}

// SetDeviceNamespace designates ns as the device container's namespace,
// granting it the right to call PUBLISH_TO_ALL_NS.
func (d *Driver) SetDeviceNamespace(ns *Namespace) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.devcon = ns
}

// Footprint counts what the driver holds on behalf of live processes, so
// that tests and benchmarks can check that tearing containers down frees
// it.
type Footprint struct {
	Namespaces int
	Procs      int
	Handles    int // entries across every live process's handle table
	Indexed    int // entries across every live process's node→handle index
	DeathLinks int // links registered against live processes' nodes
	HeldLinks  int // links live processes registered
}

// Footprint returns the driver's current footprint.
func (d *Driver) Footprint() Footprint {
	d.mu.Lock()
	defer d.mu.Unlock()
	var f Footprint
	for _, ns := range *d.namespaces.Load() {
		f.Namespaces++
		for _, p := range ns.procs {
			f.Procs++
			f.Handles += len(*p.handles.Load())
			f.Indexed += len(p.index)
			f.HeldLinks += len(p.held)
			for l := p.obits; l != nil; l = l.next {
				f.DeathLinks++
			}
		}
	}
	return f
}

// LookupNamespace returns the namespace registered under name. Lock-free:
// fleet assemblies resolve their containers' namespaces on hot paths
// without touching d.mu.
func (d *Driver) LookupNamespace(name string) (*Namespace, bool) {
	ns, ok := (*d.namespaces.Load())[name]
	return ns, ok
}

// noHandles is the empty handle table every process starts with and every
// exited process keeps. Handle tables are never written in place, so all
// of them can share it.
var noHandles = map[Handle]*Node{}

// Attach creates a process in the namespace with the given effective uid,
// assigning it a fresh PID.
func (ns *Namespace) Attach(euid int) *Proc {
	d := ns.driver
	d.mu.Lock()
	defer d.mu.Unlock()
	d.nextPID++
	p := &Proc{
		driver:  d,
		ns:      ns,
		pid:     d.nextPID,
		euid:    euid,
		procIdx: len(ns.procs),
	}
	p.next.Store(1) // handle 0 is reserved for the context manager
	p.handles.Store(&noHandles)
	ns.procs = append(ns.procs, p)
	return p
}

// NewNode creates a Binder node owned by p with the given handler. The node
// is not reachable by anyone until a handle to it is passed in a transaction
// or it is registered with a context manager.
func (p *Proc) NewNode(name string, h Handler) *Node {
	d := p.driver
	d.mu.Lock()
	defer d.mu.Unlock()
	d.nextNode++
	return &Node{id: d.nextNode, name: name, owner: p, h: h}
}

// BecomeContextManager registers node as the Context Manager for p's
// namespace. Binder allows only one Context Manager per namespace; the
// driver identifies the container from which the registration comes, so
// subsequent references to handle 0 within that container resolve here.
func (p *Proc) BecomeContextManager(node *Node) error {
	d := p.driver
	d.mu.Lock()
	if p.dead.Load() {
		d.mu.Unlock()
		return ErrDeadProc
	}
	if node.owner != p {
		d.mu.Unlock()
		return fmt.Errorf("%w: context manager node must be owned by caller", ErrPermission)
	}
	if mgr := p.ns.mgr.Load(); mgr != nil && !mgr.dead() {
		d.mu.Unlock()
		return ErrAlreadyManager
	}
	p.ns.mgr.Store(node)
	// Replay prior PUBLISH_TO_ALL_NS registrations into this new manager,
	// unless this namespace is the device container itself.
	var replay []publishedService
	if p.ns != d.devcon {
		replay = append(replay, d.published...)
	}
	d.mu.Unlock()
	for _, svc := range replay {
		// Registration failures for individual services must not prevent the
		// manager from coming up; the driver keeps going, as a kernel would.
		_, _ = d.deliver(kernelSender(), node, CodeAddService, []byte(svc.name), []*Node{svc.node})
	}
	return nil
}

func (n *Node) dead() bool { return n.owner == nil || n.owner.dead.Load() }

// Exit detaches the process: all its nodes become dead, its handles are
// released, the death links it registered are dropped, and those
// registered against its nodes fire, in registration order, once the
// driver lock is released.
func (p *Proc) Exit() {
	d := p.driver
	d.mu.Lock()
	if p.dead.Load() {
		d.mu.Unlock()
		return
	}
	procs := p.ns.procs
	last := procs[len(procs)-1]
	procs[p.procIdx], last.procIdx = last, p.procIdx
	procs[len(procs)-1] = nil
	p.ns.procs = procs[:len(procs)-1]
	fire := d.exitLocked([]*Proc{p})
	d.mu.Unlock()
	for _, l := range fire {
		l.fn()
	}
}

// exitLocked kills procs together and returns the death links to fire,
// sorted by registration order. First every process is marked dead and
// the links it holds are dropped, so that a link between two of them
// never fires; then each one's obits are collected and its tables
// emptied. Caller holds d.mu and removes procs from their namespace.
func (d *Driver) exitLocked(procs []*Proc) []*deathLink {
	for _, p := range procs {
		p.dead.Store(true)
		for len(p.held) > 0 {
			d.unlinkLocked(p.held[len(p.held)-1])
		}
		p.held = nil
	}
	var fire []*deathLink
	for _, p := range procs {
		for l := p.obits; l != nil; l = l.next {
			fire = append(fire, l)
			d.dropHeldLocked(l)
		}
		p.obits, p.lastObit = nil, nil
		p.handles.Store(&noHandles)
		p.index = nil
	}
	slices.SortFunc(fire, func(a, b *deathLink) int { return cmp.Compare(a.seq, b.seq) })
	return fire
}

// LinkToDeath registers a callback that fires when the owner of the node
// behind h exits — Binder's death notification mechanism, which the
// ServiceManager uses to drop registrations of crashed services. The link
// lives until it fires, p exits, or p releases h.
func (p *Proc) LinkToDeath(h Handle, fn func()) error {
	d := p.driver
	d.mu.Lock()
	defer d.mu.Unlock()
	node, err := p.resolve(h)
	if err != nil {
		return err
	}
	d.nextLink++
	owner := node.owner
	l := &deathLink{seq: d.nextLink, holder: p, owner: owner, h: h, fn: fn,
		prev: owner.lastObit, heldIdx: len(p.held)}
	if owner.lastObit == nil {
		owner.obits = l
	} else {
		owner.lastObit.next = l
	}
	owner.lastObit = l
	p.held = append(p.held, l)
	return nil
}

// unlinkLocked removes l from both its owner's and its holder's lists.
// Caller holds d.mu.
func (d *Driver) unlinkLocked(l *deathLink) {
	o := l.owner
	if l.prev == nil {
		o.obits = l.next
	} else {
		l.prev.next = l.next
	}
	if l.next == nil {
		o.lastObit = l.prev
	} else {
		l.next.prev = l.prev
	}
	l.prev, l.next = nil, nil
	d.dropHeldLocked(l)
}

// dropHeldLocked removes l from its holder's held list by moving the last
// entry into its slot. Caller holds d.mu.
func (d *Driver) dropHeldLocked(l *deathLink) {
	held := l.holder.held
	last := held[len(held)-1]
	held[l.heldIdx], last.heldIdx = last, l.heldIdx
	held[len(held)-1] = nil
	l.holder.held = held[:len(held)-1]
}

// Release drops p's reference h, Binder's BC_RELEASE: the handle leaves
// p's table, any death links p registered through it are dropped, and a
// later transaction on h fails with ErrReleased. Handles are not reused.
func (p *Proc) Release(h Handle) error {
	d := p.driver
	d.mu.Lock()
	defer d.mu.Unlock()
	if p.dead.Load() {
		return ErrDeadProc
	}
	cur := *p.handles.Load()
	n, ok := cur[h]
	if !ok {
		return p.handleErr(h)
	}
	next := make(map[Handle]*Node, len(cur)-1)
	for k, v := range cur { //vet:allow detguard copy-on-write map clone; order-independent
		if k != h {
			next[k] = v
		}
	}
	p.handles.Store(&next)
	delete(p.index, n)
	for i := 0; i < len(p.held); {
		if l := p.held[i]; l.h == h {
			d.unlinkLocked(l) // moves another link into slot i
		} else {
			i++
		}
	}
	return nil
}

// resolve maps a handle to a node. Lock-free: it reads the dead flag, the
// namespace's manager pointer, and the handle-table snapshot, all of which
// are published atomically by the mutation paths. A resolution racing a
// mutation observes either the old table or the new one — exactly the
// serialization a locked lookup would have produced on one side of the
// mutation or the other.
func (p *Proc) resolve(h Handle) (*Node, error) {
	if p.dead.Load() {
		return nil, ErrDeadProc
	}
	if h == ContextManagerHandle {
		mgr := p.ns.mgr.Load()
		if mgr == nil || mgr.dead() {
			return nil, ErrNoContextManager
		}
		return mgr, nil
	}
	n, ok := (*p.handles.Load())[h]
	if !ok {
		return nil, p.handleErr(h)
	}
	if n.dead() {
		return nil, ErrDeadNode
	}
	return n, nil
}

// handleErr says why h is not in p's table: p released it, or p never
// held it.
func (p *Proc) handleErr(h Handle) error {
	err := ErrBadHandle
	if uint32(h) < p.next.Load() {
		err = ErrReleased
	}
	return fmt.Errorf("%w: %d", err, h) //vet:allow hotpath cold error path (bad or released handle)
}

// installLocked adds a node to the process' handle table, returning the
// handle; a node already in the table keeps its handle. Caller holds d.mu.
// The table is never mutated in place: the snapshot readers hold must stay
// frozen, so installation clones the map, adds the entry, and publishes
// the clone.
func (p *Proc) installLocked(n *Node) Handle {
	if h, ok := p.index[n]; ok {
		return h
	}
	cur := *p.handles.Load()
	h := Handle(p.next.Add(1) - 1)
	next := make(map[Handle]*Node, len(cur)+1) //vet:allow hotpath object-transfer slow path; serializes on d.mu by contract
	for k, v := range cur {                    //vet:allow detguard copy-on-write map clone; order-independent
		next[k] = v
	}
	next[h] = n
	p.handles.Store(&next)
	if p.index == nil {
		p.index = make(map[*Node]Handle) //vet:allow hotpath object-transfer slow path; serializes on d.mu by contract
	}
	p.index[n] = h
	return h
}

// NodeFor returns the node a handle refers to, for passing a received
// service reference onward in a Reply.
func (p *Proc) NodeFor(h Handle) (*Node, error) {
	return p.resolve(h)
}

// Transact sends a synchronous transaction to the node referenced by h,
// passing any local nodes as objects. The reply's object references are
// installed in p's handle table and returned as handles.
//
// The data-only round trip — no objects sent, none returned — is entirely
// lock-free: handle resolution reads copy-on-write snapshots, the sender
// identity is built from immutable Proc fields, the target's handler is
// immutable after NewNode, and the transaction counter is sharded across
// padded atomic cells. Parallel callers in different processes never touch
// Driver.mu (measured by androne-bench -exp scale). Object transfer still
// serializes on d.mu because it grows a handle table.
//
//vet:hotpath data-only transact is the fleet's de-contended fast path
func (p *Proc) Transact(h Handle, code uint32, data []byte, objects []*Node) ([]byte, []Handle, error) {
	d := p.driver
	if len(data) > MaxTransactionBytes {
		mTransactions.Inc() // cold error path: direct atomic is fine
		mTransactErrors.Inc()
		d.tel.Emit(p.ns.key, kTxnError, int64(code), int64(len(data)), "too-large")
		return nil, nil, fmt.Errorf("%w: %d bytes", ErrTooLarge, len(data)) //vet:allow hotpath cold error path (bad handle)
	}
	d.txns.Inc(p.pid) // sharded by PID; FlushMetrics folds the batch in
	target, err := p.resolve(h)
	if err != nil {
		mTransactErrors.Inc()
		d.tel.Emit(p.ns.key, kTxnError, int64(code), int64(h), "resolve")
		return nil, nil, err
	}
	sender := Sender{PID: p.pid, EUID: p.euid, Container: p.ns.name}

	reply, err := d.deliver(sender, target, code, data, objects)
	if err != nil {
		mTransactErrors.Inc()
		d.tel.Emit(p.ns.key, kTxnError, int64(code), 0, "deliver")
		return nil, nil, err
	}

	if len(reply.Objects) == 0 {
		// Data-only reply: nothing to install, stay off the lock.
		if p.dead.Load() {
			return nil, nil, ErrDeadProc
		}
		return reply.Data, nil, nil
	}
	d.mu.Lock() //vet:allow hotpath object replies serialize on d.mu by contract
	defer d.mu.Unlock()
	if p.dead.Load() {
		return nil, nil, ErrDeadProc
	}
	handles := make([]Handle, len(reply.Objects)) //vet:allow hotpath object-transfer slow path; serializes on d.mu by contract
	for i, n := range reply.Objects {
		handles[i] = p.installLocked(n)
	}
	return reply.Data, handles, nil
}

// deliver hands a transaction to the target's handler, translating object
// nodes into handles in the target's process. The data-only case takes no
// lock (liveness is an atomic read and the handler is immutable); passing
// objects grows the owner's handle table and therefore serializes on d.mu.
func (d *Driver) deliver(sender Sender, target *Node, code uint32, data []byte, objects []*Node) (Reply, error) {
	var objHandles []Handle
	if len(objects) > 0 {
		owner := target.owner
		d.mu.Lock() //vet:allow hotpath object transfer serializes on d.mu by contract
		if target.dead() {
			d.mu.Unlock()
			return Reply{}, ErrDeadNode
		}
		objHandles = make([]Handle, len(objects)) //vet:allow hotpath object-transfer slow path; serializes on d.mu by contract
		for i, n := range objects {
			objHandles[i] = owner.installLocked(n)
		}
		d.mu.Unlock()
	} else if target.dead() {
		return Reply{}, ErrDeadNode
	}
	h := target.h
	if h == nil {
		return Reply{}, fmt.Errorf("binder: node %q has no handler", target.name) //vet:allow hotpath cold error path (node without handler)
	}
	return h(Txn{Code: code, Data: data, Objects: objHandles, Sender: sender})
}

func kernelSender() Sender { return Sender{PID: 0, EUID: 0, Container: "<kernel>"} }

// PublishToAllNS implements the PUBLISH_TO_ALL_NS ioctl: it takes a service
// name and a handle valid in p, and registers that service with the Context
// Manager of every other namespace by making the driver's own AddService
// registration call. Callable only from the device container's namespace,
// for security. The registration is recorded so namespaces created later
// receive it too.
func (p *Proc) PublishToAllNS(name string, h Handle) error {
	d := p.driver
	d.mu.Lock()
	if d.devcon == nil || p.ns != d.devcon {
		d.mu.Unlock()
		return fmt.Errorf("%w: PUBLISH_TO_ALL_NS is restricted to the device container", ErrPermission)
	}
	node, err := p.resolve(h)
	if err != nil {
		d.mu.Unlock()
		return err
	}
	d.published = append(d.published, publishedService{name: name, node: node})
	// Snapshot the managers to call outside the lock, in namespace-name
	// order: each AddService delivery can emit trace events, so the fan-out
	// sequence must not follow map iteration order.
	var managers []*Node
	for _, ns := range *d.namespaces.Load() {
		if ns == d.devcon {
			continue
		}
		// The presence of a ServiceManager indicates the container is a
		// virtual drone running Android Things.
		if mgr := ns.mgr.Load(); mgr != nil && !mgr.dead() {
			managers = append(managers, mgr)
		}
	}
	d.mu.Unlock()
	sort.Slice(managers, func(i, j int) bool {
		return managers[i].owner.ns.name < managers[j].owner.ns.name
	})
	for _, mgr := range managers {
		if _, err := d.deliver(kernelSender(), mgr, CodeAddService, []byte(name), []*Node{node}); err != nil {
			return fmt.Errorf("binder: publishing %q to %q: %w", name, mgr.owner.ns.name, err)
		}
	}
	mPublishes.Inc()
	d.tel.Emit(0, kPublishAllNS, int64(len(managers)), 0, name)
	return nil
}

// PublishToDevCon implements the PUBLISH_TO_DEV_CON ioctl: it registers the
// node (a container's ActivityManager) with the device container's Context
// Manager under "<name>:<container>", so device services can locate the
// calling container's ActivityManager for permission checks.
func (p *Proc) PublishToDevCon(name string, h Handle) error {
	d := p.driver
	d.mu.Lock()
	if d.devcon == nil {
		d.mu.Unlock()
		return fmt.Errorf("%w: no device container designated", ErrNoContextManager)
	}
	if p.ns == d.devcon {
		d.mu.Unlock()
		return fmt.Errorf("%w: device container cannot publish to itself", ErrPermission)
	}
	node, err := p.resolve(h)
	if err != nil {
		d.mu.Unlock()
		return err
	}
	mgr := d.devcon.mgr.Load()
	if mgr == nil || mgr.dead() {
		d.mu.Unlock()
		return ErrNoContextManager
	}
	scoped := ScopedName(name, p.ns.name)
	d.mu.Unlock()
	_, err = d.deliver(kernelSender(), mgr, CodeAddService, []byte(scoped), []*Node{node})
	if err == nil {
		mPublishes.Inc()
		d.tel.Emit(p.ns.key, kPublishDevCon, 0, 0, scoped)
	}
	return err
}

// ScopedName is the naming convention PUBLISH_TO_DEV_CON uses: the service
// name appended with the container identifier.
func ScopedName(service, container string) string {
	return service + ":" + container
}
