// Package android models the Android Things userspace layers AnDrone builds
// on: the ServiceManager (Binder's Context Manager), the ActivityManager
// with its service permission model, the SystemServer that starts services,
// and the app/activity lifecycle (onSaveInstanceState) that AnDrone uses to
// save and restore virtual drone state.
//
// Apps do not interact with hardware devices directly but via system
// services reached through Binder — the property that lets AnDrone decouple
// devices from the rest of the execution environment and centralize device
// services in the device container.
package android

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"

	"androne/internal/binder"
)

// Well-known service names.
const (
	ActivityService = "activity"
)

// ActivityManager protocol codes (on top of binder.CodeUser).
const (
	CmdCheckPermission = binder.CodeUser + iota
	CmdKillProcess
)

// Errors.
var (
	ErrNoApp      = errors.New("android: no such app")
	ErrAppRunning = errors.New("android: app already running")
)

// ---------------------------------------------------------------------------
// ServiceManager

// PublishHook lets AnDrone customize ServiceManager registration behaviour:
// the device container's ServiceManager publishes whitelisted device
// services to all namespaces, and virtual drone ServiceManagers publish
// their ActivityManager to the device container. A hook error fails the
// registration (the entry is rolled back): a half-published service — in
// particular an ActivityManager the device container cannot reach for
// permission checks — must not linger looking healthy.
type PublishHook func(sm *ServiceManager, name string, h binder.Handle) error

// ServiceManager is the userspace Context Manager: it retains the mapping of
// service names to handles given at registration time and hands out
// references on request.
type ServiceManager struct {
	proc *binder.Proc
	node *binder.Node

	mu       sync.Mutex
	services map[string]*binder.Node
	hook     PublishHook
}

// NewServiceManager starts a ServiceManager in the namespace and registers
// it as the namespace's Context Manager. hook, if non-nil, runs after each
// successful registration.
func NewServiceManager(ns *binder.Namespace, hook PublishHook) (*ServiceManager, error) {
	sm := &ServiceManager{services: make(map[string]*binder.Node), hook: hook}
	sm.proc = ns.Attach(0) // system uid
	sm.node = sm.proc.NewNode("servicemanager:"+ns.Name(), sm.handleTxn)
	if err := sm.proc.BecomeContextManager(sm.node); err != nil {
		return nil, err
	}
	return sm, nil
}

// Proc returns the manager's Binder process, used by publish hooks to issue
// ioctls.
func (sm *ServiceManager) Proc() *binder.Proc { return sm.proc }

func (sm *ServiceManager) handleTxn(txn binder.Txn) (binder.Reply, error) {
	switch txn.Code {
	case binder.CodeAddService:
		if len(txn.Objects) != 1 {
			return binder.Reply{}, fmt.Errorf("android: AddService wants 1 object, got %d", len(txn.Objects))
		}
		name, h := string(txn.Data), txn.Objects[0]
		node, err := sm.proc.NodeFor(h)
		if err != nil {
			_ = sm.proc.Release(h)
			return binder.Reply{}, err
		}
		sm.mu.Lock()
		sm.services[name] = node
		hook := sm.hook
		sm.mu.Unlock()
		// Drop the registration, and the manager's reference to the node,
		// if the service's process dies, via Binder's death notification.
		// Registrations hand out nodes, never this handle, so releasing it
		// cannot strand a client.
		_ = sm.proc.LinkToDeath(h, func() {
			sm.mu.Lock()
			if sm.services[name] == node {
				delete(sm.services, name)
			}
			sm.mu.Unlock()
			_ = sm.proc.Release(h)
		})
		if hook != nil {
			if err := hook(sm, name, h); err != nil {
				// Roll the registration back so a lookup cannot find a
				// service whose cross-namespace publication failed.
				sm.mu.Lock()
				if sm.services[name] == node {
					delete(sm.services, name)
				}
				sm.mu.Unlock()
				return binder.Reply{}, fmt.Errorf("android: publish hook for %q: %w", name, err)
			}
		}
		return binder.Reply{}, nil
	case binder.CodeGetService, binder.CodeCheckService:
		sm.mu.Lock()
		node, ok := sm.services[string(txn.Data)]
		sm.mu.Unlock()
		if !ok {
			if txn.Code == binder.CodeCheckService {
				return binder.Reply{Data: []byte("absent")}, nil
			}
			return binder.Reply{}, fmt.Errorf("android: no service %q", txn.Data)
		}
		return binder.Reply{Objects: []*binder.Node{node}}, nil
	case binder.CodeListServices:
		sm.mu.Lock()
		names := make([]string, 0, len(sm.services))
		for n := range sm.services {
			names = append(names, n)
		}
		sm.mu.Unlock()
		sort.Strings(names)
		return binder.Reply{Data: []byte(join(names))}, nil
	case binder.CodePing:
		return binder.Reply{}, nil
	}
	return binder.Reply{}, fmt.Errorf("android: servicemanager: unknown code %d", txn.Code)
}

// Services returns the registered service names, sorted.
func (sm *ServiceManager) Services() []string {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	names := make([]string, 0, len(sm.services))
	for n := range sm.services {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ---------------------------------------------------------------------------
// Client

// Client is a Binder client within a container: an app process or a native
// daemon using the framework's service lookup path.
type Client struct {
	proc *binder.Proc
}

// NewClient attaches a client process with the given uid in the namespace.
func NewClient(ns *binder.Namespace, uid int) *Client {
	return &Client{proc: ns.Attach(uid)}
}

// Proc exposes the underlying Binder process.
func (c *Client) Proc() *binder.Proc { return c.proc }

// GetService asks the namespace's ServiceManager for a handle to name.
func (c *Client) GetService(name string) (binder.Handle, error) {
	_, hs, err := c.proc.Transact(binder.ContextManagerHandle, binder.CodeGetService, []byte(name), nil)
	if err != nil {
		return 0, err
	}
	if len(hs) != 1 {
		return 0, fmt.Errorf("android: GetService(%q) returned %d handles", name, len(hs))
	}
	return hs[0], nil
}

// AddService registers a local node with the namespace's ServiceManager.
func (c *Client) AddService(name string, node *binder.Node) error {
	_, _, err := c.proc.Transact(binder.ContextManagerHandle, binder.CodeAddService, []byte(name), []*binder.Node{node})
	return err
}

// Call transacts with a held handle.
func (c *Client) Call(h binder.Handle, code uint32, data []byte) ([]byte, []binder.Handle, error) {
	return c.proc.Transact(h, code, data, nil)
}

// ---------------------------------------------------------------------------
// ActivityManager

// Permission names for the prototype's devices, mirroring Android's.
const (
	PermCamera        = "android.permission.CAMERA"
	PermLocation      = "android.permission.ACCESS_FINE_LOCATION"
	PermAudio         = "android.permission.RECORD_AUDIO"
	PermSensors       = "android.permission.BODY_SENSORS"
	PermFlightControl = "androne.permission.FLIGHT_CONTROL"
)

// ActivityManager manages app processes and answers permission checks. In
// AnDrone each container runs its own ActivityManager, which knows the
// permissions of the apps in that container.
type ActivityManager struct {
	container string
	proc      *binder.Proc
	node      *binder.Node

	mu      sync.Mutex
	granted map[int]map[string]bool // uid -> permission set
	procs   map[int]*App            // pid -> app
}

// NewActivityManager starts an ActivityManager in the namespace and
// registers it with the local ServiceManager (which may, via its publish
// hook, also publish it to the device container).
func NewActivityManager(ns *binder.Namespace) (*ActivityManager, error) {
	am := &ActivityManager{
		container: ns.Name(),
		granted:   make(map[int]map[string]bool),
		procs:     make(map[int]*App),
	}
	am.proc = ns.Attach(0)
	am.node = am.proc.NewNode("activitymanager:"+ns.Name(), am.handleTxn)
	c := &Client{proc: am.proc}
	if err := c.AddService(ActivityService, am.node); err != nil {
		return nil, err
	}
	return am, nil
}

func (am *ActivityManager) handleTxn(txn binder.Txn) (binder.Reply, error) {
	switch txn.Code {
	case CmdCheckPermission:
		// Data: "<permission>\x00<uid>"
		parts := bytes.SplitN(txn.Data, []byte{0}, 2)
		if len(parts) != 2 {
			return binder.Reply{}, errors.New("android: malformed CheckPermission")
		}
		uid, err := strconv.Atoi(string(parts[1]))
		if err != nil {
			return binder.Reply{}, fmt.Errorf("android: bad uid: %w", err)
		}
		// The uid here names the subject being queried ABOUT, not the
		// caller: devcon derives it from its own Binder-stamped sender
		// before bridging the query across containers. The caller's own
		// identity is txn.Sender, which gates nothing on this path.
		if am.CheckPermission(string(parts[0]), uid) { //vet:allow sendertaint uid is the query subject forwarded by devcon, not the caller identity
			return binder.Reply{Data: []byte("granted")}, nil
		}
		return binder.Reply{Data: []byte("denied")}, nil
	case CmdKillProcess:
		pid, err := strconv.Atoi(string(txn.Data))
		if err != nil {
			return binder.Reply{}, fmt.Errorf("android: bad pid: %w", err)
		}
		am.KillProcess(pid)
		return binder.Reply{}, nil
	case binder.CodePing:
		return binder.Reply{}, nil
	}
	return binder.Reply{}, fmt.Errorf("android: activitymanager: unknown code %d", txn.Code)
}

// Grant grants a permission to a uid, as the package installer does from a
// manifest.
func (am *ActivityManager) Grant(uid int, perm string) {
	am.mu.Lock()
	defer am.mu.Unlock()
	set, ok := am.granted[uid]
	if !ok {
		set = make(map[string]bool)
		am.granted[uid] = set
	}
	set[perm] = true
}

// Revoke removes a permission from a uid.
func (am *ActivityManager) Revoke(uid int, perm string) {
	am.mu.Lock()
	defer am.mu.Unlock()
	if set, ok := am.granted[uid]; ok {
		delete(set, perm)
	}
}

// CheckPermission reports whether uid holds perm. System uid 0 holds
// everything.
func (am *ActivityManager) CheckPermission(perm string, uid int) bool {
	if uid == 0 {
		return true
	}
	am.mu.Lock()
	defer am.mu.Unlock()
	return am.granted[uid][perm]
}

// CheckPermissionData encodes a CheckPermission request payload.
func CheckPermissionData(perm string, uid int) []byte {
	return append(append([]byte(perm), 0), []byte(strconv.Itoa(uid))...)
}

// KillProcess force-stops the app owning pid, without running lifecycle
// callbacks — the enforcement path the VDC uses when an app ignores a
// device-access revocation notice.
func (am *ActivityManager) KillProcess(pid int) {
	am.mu.Lock()
	app := am.procs[pid]
	delete(am.procs, pid)
	am.mu.Unlock()
	if app != nil {
		app.kill()
	}
}

// ---------------------------------------------------------------------------
// Apps and lifecycle

// AppState is an app's lifecycle state.
type AppState int

// App lifecycle states.
const (
	AppStopped AppState = iota
	AppRunning
	AppKilled
)

func (s AppState) String() string {
	switch s {
	case AppStopped:
		return "stopped"
	case AppRunning:
		return "running"
	case AppKilled:
		return "killed"
	}
	return fmt.Sprintf("AppState(%d)", int(s))
}

// Lifecycle is the subset of the Android activity lifecycle AnDrone relies
// on. OnCreate receives any saved instance state from a previous run;
// OnSaveInstanceState is called before termination and its result is
// preserved, which is how virtual drones are saved to the VDR and resumed
// on a later flight.
type Lifecycle interface {
	OnCreate(app *App, savedState []byte)
	OnSaveInstanceState(app *App) []byte
	OnDestroy(app *App)
}

// LifecycleFuncs adapts plain functions to Lifecycle; nil members are no-ops.
type LifecycleFuncs struct {
	Create  func(app *App, savedState []byte)
	Save    func(app *App) []byte
	Destroy func(app *App)
}

// OnCreate implements Lifecycle.
func (l LifecycleFuncs) OnCreate(app *App, saved []byte) {
	if l.Create != nil {
		l.Create(app, saved)
	}
}

// OnSaveInstanceState implements Lifecycle.
func (l LifecycleFuncs) OnSaveInstanceState(app *App) []byte {
	if l.Save != nil {
		return l.Save(app)
	}
	return nil
}

// OnDestroy implements Lifecycle.
func (l LifecycleFuncs) OnDestroy(app *App) {
	if l.Destroy != nil {
		l.Destroy(app)
	}
}

// App is an installed application: a package name, a uid, a Binder client
// process, and lifecycle callbacks.
type App struct {
	Package string
	UID     int

	inst *Instance
	lc   Lifecycle

	mu     sync.Mutex
	state  AppState
	client *Client
	saved  []byte
}

// State returns the app's lifecycle state.
func (a *App) State() AppState {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.state
}

// Client returns the app's Binder client while running, or nil.
func (a *App) Client() *Client {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.client
}

// SavedState returns the most recent onSaveInstanceState result.
func (a *App) SavedState() []byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]byte(nil), a.saved...)
}

// SetSavedState seeds the saved state, used when restoring a virtual drone
// from the VDR.
func (a *App) SetSavedState(b []byte) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.saved = append([]byte(nil), b...)
}

// Instance returns the Android instance the app is installed in.
func (a *App) Instance() *Instance { return a.inst }

func (a *App) kill() {
	a.mu.Lock()
	if a.state != AppRunning {
		a.mu.Unlock()
		return
	}
	client := a.client
	a.client = nil
	a.state = AppKilled
	a.mu.Unlock()
	// Exit fires binder death-link callbacks, which may call back into this
	// app or its instance; never hold a.mu across it.
	if client != nil {
		client.proc.Exit()
	}
}

// ---------------------------------------------------------------------------
// Instance (SystemServer)

// Instance is a booted Android Things environment inside one container
// namespace: a ServiceManager, an ActivityManager, and installed apps.
// AnDrone modifies init files and SystemServer so that virtual drone
// instances do not start their own device services; the WithDeviceServices
// option restores vanilla behaviour for the device container.
type Instance struct {
	ns *binder.Namespace
	sm *ServiceManager
	am *ActivityManager

	mu   sync.Mutex
	apps map[string]*App
}

// Option configures instance boot.
type Option func(*bootConfig)

type bootConfig struct {
	smHook PublishHook
}

// WithServiceManagerHook installs a registration hook on the instance's
// ServiceManager (used by the device container to publish device services,
// and by virtual drones to publish their ActivityManager to the device
// container).
func WithServiceManagerHook(h PublishHook) Option {
	return func(c *bootConfig) { c.smHook = h }
}

// Boot starts SystemServer for the namespace: ServiceManager first, then
// ActivityManager.
func Boot(ns *binder.Namespace, opts ...Option) (*Instance, error) {
	var cfg bootConfig
	for _, o := range opts {
		o(&cfg)
	}
	sm, err := NewServiceManager(ns, cfg.smHook)
	if err != nil {
		return nil, fmt.Errorf("android: boot %s: %w", ns.Name(), err)
	}
	am, err := NewActivityManager(ns)
	if err != nil {
		return nil, fmt.Errorf("android: boot %s: %w", ns.Name(), err)
	}
	return &Instance{ns: ns, sm: sm, am: am, apps: make(map[string]*App)}, nil
}

// Namespace returns the instance's Binder namespace.
func (in *Instance) Namespace() *binder.Namespace { return in.ns }

// ServiceManager returns the instance's ServiceManager.
func (in *Instance) ServiceManager() *ServiceManager { return in.sm }

// ActivityManager returns the instance's ActivityManager.
func (in *Instance) ActivityManager() *ActivityManager { return in.am }

// Install installs an app with the given uid and lifecycle.
func (in *Instance) Install(pkg string, uid int, lc Lifecycle) *App {
	app := &App{Package: pkg, UID: uid, inst: in, lc: lc, state: AppStopped}
	in.mu.Lock()
	in.apps[pkg] = app
	in.mu.Unlock()
	return app
}

// App retrieves an installed app.
func (in *Instance) App(pkg string) (*App, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	app, ok := in.apps[pkg]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoApp, pkg)
	}
	return app, nil
}

// Apps returns the installed package names, sorted.
func (in *Instance) Apps() []string {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]string, 0, len(in.apps))
	for p := range in.apps {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// StartApp launches an installed app: allocates its process and runs
// onCreate with any saved state.
func (in *Instance) StartApp(pkg string) error {
	app, err := in.App(pkg)
	if err != nil {
		return err
	}
	app.mu.Lock()
	if app.state == AppRunning {
		app.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrAppRunning, pkg)
	}
	app.client = NewClient(in.ns, app.UID)
	app.state = AppRunning
	saved := append([]byte(nil), app.saved...)
	lc := app.lc
	app.mu.Unlock()

	in.am.mu.Lock()
	in.am.procs[app.client.proc.PID()] = app
	in.am.mu.Unlock()

	if lc != nil {
		lc.OnCreate(app, saved)
	}
	return nil
}

// StopApp gracefully stops an app: onSaveInstanceState, then onDestroy,
// preserving the saved state for a future start.
func (in *Instance) StopApp(pkg string) error {
	app, err := in.App(pkg)
	if err != nil {
		return err
	}
	app.mu.Lock()
	if app.state != AppRunning {
		app.mu.Unlock()
		return nil
	}
	lc := app.lc
	client := app.client
	app.mu.Unlock()

	var saved []byte
	if lc != nil {
		saved = lc.OnSaveInstanceState(app)
	}

	app.mu.Lock()
	if saved != nil {
		app.saved = saved
	}
	app.state = AppStopped
	app.client = nil
	app.mu.Unlock()

	if lc != nil {
		lc.OnDestroy(app)
	}
	if client != nil {
		in.am.mu.Lock()
		delete(in.am.procs, client.proc.PID())
		in.am.mu.Unlock()
		client.proc.Exit()
	}
	return nil
}

// Shutdown stops all running apps gracefully.
func (in *Instance) Shutdown() {
	for _, pkg := range in.Apps() {
		_ = in.StopApp(pkg)
	}
}

func join(ss []string) string {
	var b bytes.Buffer
	for i, s := range ss {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(s)
	}
	return b.String()
}
