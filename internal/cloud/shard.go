package cloud

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Tenant state — orders and per-user storage — is sharded by tenant hash so
// one service instance does not serialize every tenant behind a single
// mutex. All writes for a tenant go through the owning shard's mutex; no
// operation holds two shard locks at once, so shards cannot deadlock
// against each other and a hot tenant contends only with the ~1/NumShards
// of tenants that hash beside it.

// NumShards is the shard fan-out for orders and storage. Sixteen shards
// keep the ID prefix two digits while comfortably exceeding the core
// counts this repo targets.
const NumShards = 16

// ShardOf maps a tenant to its owning shard: FNV-1a over the user name,
// reduced mod NumShards. Exported so tests can pick colliding or disjoint
// tenants deliberately.
func ShardOf(user string) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(user); i++ {
		h ^= uint32(user[i])
		h *= prime32
	}
	return int(h % NumShards)
}

// Quotas bounds what one tenant may hold. Zero values mean unlimited;
// DefaultQuotas is what the service plane runs with unless configured.
type Quotas struct {
	// MaxOrdersPerTenant caps orders a tenant may create (they are never
	// deleted, so this is a lifetime cap per service instance).
	MaxOrdersPerTenant int `json:"max-orders-per-tenant"`
	// MaxStorageBytesPerTenant caps a tenant's cloud storage footprint.
	MaxStorageBytesPerTenant int64 `json:"max-storage-bytes-per-tenant"`
	// MaxVDRLayersPerTenant caps live checkpoint layers a tenant holds.
	MaxVDRLayersPerTenant int `json:"max-vdr-layers-per-tenant"`
}

// DefaultQuotas is roomy for a dev host: hundreds of orders, tens of
// megabytes of flight files, and save/restore churn headroom per tenant.
func DefaultQuotas() Quotas {
	return Quotas{
		MaxOrdersPerTenant:       512,
		MaxStorageBytesPerTenant: 64 << 20,
		MaxVDRLayersPerTenant:    4096,
	}
}

// --------------------------------------------------------------------------
// Cloud storage

// Storage is the general per-user file storage that flight files are
// offloaded to; users retrieve files on demand after the flight. A tenant's
// files live entirely in the shard ShardOf(user) selects.
type Storage struct {
	maxBytes int64
	shards   [NumShards]storageShard
}

type storageShard struct {
	mu    sync.Mutex
	files map[string]map[string][]byte // user -> path -> contents
	usage map[string]int64             // user -> stored bytes
}

// NewStorage creates empty storage with default quotas.
func NewStorage() *Storage { return NewStorageWith(DefaultQuotas()) }

// NewStorageWith creates empty storage enforcing q's per-tenant byte quota.
func NewStorageWith(q Quotas) *Storage {
	s := &Storage{maxBytes: q.MaxStorageBytesPerTenant}
	for i := range s.shards {
		s.shards[i].files = make(map[string]map[string][]byte)
		s.shards[i].usage = make(map[string]int64)
	}
	return s
}

func (s *Storage) shard(user string) *storageShard {
	return &s.shards[ShardOf(user)]
}

// Put stores a file for a user. It fails with ErrQuotaExceeded when the
// write would push the user past the per-tenant byte quota (overwrites are
// charged by the delta, so rewriting a file in place always fits).
func (s *Storage) Put(user, path string, data []byte) error {
	sh := s.shard(user)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	m, ok := sh.files[user]
	if !ok {
		m = make(map[string][]byte)
	}
	next := sh.usage[user] - int64(len(m[path])) + int64(len(data))
	if s.maxBytes > 0 && next > s.maxBytes {
		return fmt.Errorf("%w: tenant %q storage would reach %d bytes (quota %d)",
			ErrQuotaExceeded, user, next, s.maxBytes)
	}
	if !ok {
		sh.files[user] = m
	}
	m[path] = append([]byte(nil), data...)
	sh.usage[user] = next
	return nil
}

// Get retrieves a user's file.
func (s *Storage) Get(user, path string) ([]byte, error) {
	sh := s.shard(user)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	data, ok := sh.files[user][path]
	if !ok {
		return nil, fmt.Errorf("%w: %s/%s", ErrNotFound, user, path)
	}
	return append([]byte(nil), data...), nil
}

// List returns a user's file paths, sorted.
func (s *Storage) List(user string) []string {
	sh := s.shard(user)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	out := make([]string, 0, len(sh.files[user]))
	for p := range sh.files[user] {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// UsageBytes returns a user's stored bytes (the billing and quota input).
func (s *Storage) UsageBytes(user string) int64 {
	sh := s.shard(user)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.usage[user]
}

// --------------------------------------------------------------------------
// Orders

// OrderStatus tracks a virtual drone order through the Figure 4 workflow.
type OrderStatus string

// Order statuses.
const (
	OrderPending   OrderStatus = "pending"
	OrderScheduled OrderStatus = "scheduled"
	OrderFlying    OrderStatus = "flying"
	OrderCompleted OrderStatus = "completed"
	OrderSaved     OrderStatus = "saved" // interrupted; resumable from VDR
)

// AccessInfo is what the portal provides once a drone takes off: how the
// user may connect to their virtual drone, much like a newly deployed
// cloud server.
type AccessInfo struct {
	VFCAddr string `json:"vfc-addr"`
	SSHAddr string `json:"ssh-addr"`
	VPNKey  string `json:"vpn-key"`
}

// Order is a virtual drone order.
type Order struct {
	ID         string          `json:"id"`
	User       string          `json:"user"`
	Name       string          `json:"name"` // virtual drone name
	Definition json.RawMessage `json:"definition"`
	Status     OrderStatus     `json:"status"`
	// WindowStartS/WindowEndS estimate when the drone reaches the order's
	// first waypoint, as seconds from flight start.
	WindowStartS float64    `json:"window-start-s"`
	WindowEndS   float64    `json:"window-end-s"`
	Access       AccessInfo `json:"access"`
	// EstimatedCharge previews the energy bill for the allotment.
	EstimatedCharge float64 `json:"estimated-charge"`

	// gen counts committed mutations; Update uses it to detect conflicting
	// writers without holding the lock across the caller's function.
	gen uint64
}

// Orders tracks portal orders, sharded by ordering tenant. IDs are
// shard-prefixed — ord-SS-NNNNNN — so every shard can assign IDs from its
// own counter with no cross-shard coordination and no collisions: the
// (shard, counter) pair is unique by construction, and IDs within a shard
// are monotonically increasing.
//
// A tenant's reads encode straight from the stored orders, under the
// shard lock: no copy of an order, and no per-order cache of its bytes.
type Orders struct {
	maxOrders int
	shards    [NumShards]orderShard
}

type orderShard struct {
	mu     sync.Mutex
	next   int
	orders map[string]*Order
	// byUser indexes each tenant's orders in ID order. A shard mints its
	// IDs in increasing order and never deletes an order, so Create keeps
	// the index sorted by appending.
	byUser map[string][]*Order
}

// NewOrders creates an empty order book with default quotas.
func NewOrders() *Orders { return NewOrdersWith(DefaultQuotas()) }

// NewOrdersWith creates an empty order book enforcing q's per-tenant order
// quota.
func NewOrdersWith(q Quotas) *Orders {
	o := &Orders{maxOrders: q.MaxOrdersPerTenant}
	for i := range o.shards {
		o.shards[i].orders = make(map[string]*Order)
		o.shards[i].byUser = make(map[string][]*Order)
	}
	return o
}

// orderID builds the shard-prefixed ID.
func orderID(shard, seq int) string {
	return fmt.Sprintf("ord-%02d-%06d", shard, seq)
}

// shardForID routes an order ID back to the shard that minted it; ok is
// false for IDs no shard could have issued.
func (o *Orders) shardForID(id string) (*orderShard, bool) {
	rest, found := strings.CutPrefix(id, "ord-")
	if !found {
		return nil, false
	}
	idx := strings.IndexByte(rest, '-')
	if idx <= 0 {
		return nil, false
	}
	n, err := strconv.Atoi(rest[:idx])
	if err != nil || n < 0 || n >= NumShards {
		return nil, false
	}
	return &o.shards[n], true
}

// Create registers a new pending order and assigns its id. An empty name
// defaults to the id. The definition is stored in canonical form (see
// canonicalDefinition); one that is not valid JSON fails with
// ErrInvalidDefinition. The returned Order is the caller's private copy.
// It fails with ErrQuotaExceeded once the tenant reaches its order quota.
func (o *Orders) Create(user, name string, def json.RawMessage) (*Order, error) {
	def, err := canonicalDefinition(def)
	if err != nil {
		return nil, err
	}
	shardIdx := ShardOf(user)
	sh := &o.shards[shardIdx]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if n := len(sh.byUser[user]); o.maxOrders > 0 && n >= o.maxOrders {
		return nil, fmt.Errorf("%w: tenant %q already holds %d orders",
			ErrQuotaExceeded, user, n)
	}
	sh.next++
	ord := &Order{
		ID:         orderID(shardIdx, sh.next),
		User:       user,
		Name:       name,
		Definition: def,
		Status:     OrderPending,
	}
	if ord.Name == "" {
		ord.Name = ord.ID
	}
	sh.orders[ord.ID] = ord
	sh.byUser[user] = append(sh.byUser[user], ord)
	cp := *ord
	return &cp, nil
}

// Get retrieves a snapshot of an order. Returning a copy keeps readers
// race-free against Update.
func (o *Orders) Get(id string) (*Order, error) {
	sh, ok := o.shardForID(id)
	if !ok {
		return nil, errNoOrder(id)
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ord, ok := sh.orders[id]
	if !ok {
		return nil, errNoOrder(id)
	}
	cp := *ord
	return &cp, nil
}

func errNoOrder(id string) error { return fmt.Errorf("%w: order %q", ErrNotFound, id) }

// orderJSON is the body of GET /api/orders/{id}: the order as
// encoding/json's Encoder writes it, encoded from the stored order under
// its shard lock.
func (o *Orders) orderJSON(id string) ([]byte, error) {
	sh, ok := o.shardForID(id)
	if !ok {
		return nil, errNoOrder(id)
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ord, ok := sh.orders[id]
	if !ok {
		return nil, errNoOrder(id)
	}
	body, err := appendOrderJSON(make([]byte, 0, orderJSONSize(ord)+1), ord)
	if err != nil {
		return nil, err
	}
	return append(body, '\n'), nil
}

// listJSON is the body of GET /api/orders?user=: json.Marshal of
// List(user). A tenant's list is encoded from its stored orders, in index
// order, under its shard lock; the listing of every tenant ("") is
// encoded from List's copies.
func (o *Orders) listJSON(user string) ([]byte, error) {
	if user == "" {
		all := o.List("")
		ptrs := make([]*Order, len(all))
		for i := range all {
			ptrs[i] = &all[i]
		}
		return appendOrdersJSON(nil, ptrs)
	}
	sh := &o.shards[ShardOf(user)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	list := sh.byUser[user]
	size := 2
	for _, ord := range list {
		size += orderJSONSize(ord) + 1
	}
	return appendOrdersJSON(make([]byte, 0, size), list)
}

// Update applies fn to an order atomically. fn runs on a private copy with
// no lock held — it may not observe other orders mid-change, and it cannot
// deadlock by calling back into Orders. The mutation commits only if no
// other writer got there first; on conflict the read-modify-write retries
// with a fresh copy. A changed definition is stored in canonical form, and
// one that is not valid JSON fails with ErrInvalidDefinition, committing
// nothing.
func (o *Orders) Update(id string, fn func(*Order)) error {
	sh, ok := o.shardForID(id)
	if !ok {
		return errNoOrder(id)
	}
	for {
		sh.mu.Lock()
		ord, ok := sh.orders[id]
		if !ok {
			sh.mu.Unlock()
			return errNoOrder(id)
		}
		cp := *ord
		sh.mu.Unlock()

		def := cp.Definition
		fn(&cp)
		if !bytes.Equal(cp.Definition, def) {
			canon, err := canonicalDefinition(cp.Definition)
			if err != nil {
				return err
			}
			cp.Definition = canon
		}

		sh.mu.Lock()
		cur, ok := sh.orders[id]
		if !ok {
			sh.mu.Unlock()
			return errNoOrder(id)
		}
		if cur.gen != cp.gen {
			sh.mu.Unlock()
			continue
		}
		cp.gen++
		*cur = cp
		sh.mu.Unlock()
		return nil
	}
}

// List returns orders sorted by id, optionally filtered by user ("" = all).
// A user's orders come from the owning shard's index, in ID order (the
// order of their sequence numbers); the full listing visits shards one at
// a time — never two locks at once.
func (o *Orders) List(user string) []Order {
	if user == "" {
		return listOrders(o.shards[:], "")
	}
	sh := &o.shards[ShardOf(user)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	out := make([]Order, len(sh.byUser[user]))
	for i, ord := range sh.byUser[user] {
		out[i] = *ord
	}
	return out
}

// ListStatus returns the orders in status st sorted by id, copying only
// those: a planning round keeps the pending few of a long book.
func (o *Orders) ListStatus(st OrderStatus) []Order {
	return listOrders(o.shards[:], st)
}

// listOrders copies the orders of shards in status st ("" matches any),
// one shard lock at a time, sorted by id.
func listOrders(shards []orderShard, st OrderStatus) []Order {
	out := []Order{}
	for i := range shards {
		sh := &shards[i]
		sh.mu.Lock()
		for _, ord := range sh.orders {
			if st == "" || ord.Status == st {
				out = append(out, *ord)
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Count returns how many orders user holds (the quota input).
func (o *Orders) Count(user string) int {
	sh := &o.shards[ShardOf(user)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return len(sh.byUser[user])
}
