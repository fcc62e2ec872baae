// Package cloud implements AnDrone's cloud service components (paper §4,
// Figure 3): the web portal users order virtual drones through, the app
// store providing apps for virtual drones, general storage for drone flight
// data, and the virtual drone repository (VDR) which stores preconfigured
// virtual drone definitions and saved container state for later use or
// reuse. The flight planner lives in package planner; package core wires
// everything together.
//
// The data plane is built for many tenants sharing one service: order and
// storage state is sharded by tenant hash (shard.go), checkpoints are
// content-addressed and deduplicated (blob.go, vdr.go), and the portal
// front door applies per-tenant admission control (admission.go).
package cloud

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"androne/internal/sdk"
)

// Errors.
var (
	ErrNotFound = errors.New("cloud: not found")
	ErrExists   = errors.New("cloud: already exists")
	// ErrQuotaExceeded rejects a write that would push a tenant past its
	// quota (orders, storage bytes, or VDR layers). The portal maps it to
	// 413 Request Entity Too Large.
	ErrQuotaExceeded = errors.New("cloud: tenant quota exceeded")
	// ErrLayerCorrupt means stored checkpoint bytes no longer match their
	// content address or cannot be decoded; restoring from them would be
	// silently wrong, so they are refused loudly.
	ErrLayerCorrupt = errors.New("cloud: checkpoint layer corrupt")
)

// --------------------------------------------------------------------------
// App store

// StoreApp is an app published to the AnDrone app store.
type StoreApp struct {
	Package     string        `json:"package"`
	Description string        `json:"description"`
	Manifest    *sdk.Manifest `json:"manifest"`
	APK         []byte        `json:"apk,omitempty"`
}

// AppStore is the AnDrone app store.
type AppStore struct {
	mu      sync.Mutex
	apps    map[string]StoreApp
	listing listingCache
}

// listingCache is a store's encoded listing, kept so a read costs a copy
// instead of an encode. The owning store guards it with its own mutex:
// every mutation calls invalidate, and a read that finds no body rebuilds
// it from a snapshot taken in the same critical section as the generation
// it records. install keeps the rebuilt body only if no mutation has
// happened since; a rebuild that raced one is served to its own caller
// (it is the listing as of that caller's read) but never installed, so no
// read that starts after a mutation returns can see the old listing.
type listingCache struct {
	body []byte
	gen  uint64
}

func (c *listingCache) invalidate() {
	c.body = nil
	c.gen++
}

func (c *listingCache) install(gen uint64, body []byte) {
	if c.gen == gen {
		c.body = body
	}
}

// NewAppStore creates an empty app store.
func NewAppStore() *AppStore {
	return &AppStore{apps: make(map[string]StoreApp)}
}

// Publish adds or updates an app. The manifest must validate.
func (s *AppStore) Publish(app StoreApp) error {
	if app.Manifest == nil {
		return fmt.Errorf("cloud: app %q has no manifest", app.Package)
	}
	if err := app.Manifest.Validate(); err != nil {
		return err
	}
	if app.Package != app.Manifest.Package {
		return fmt.Errorf("cloud: package %q does not match manifest %q", app.Package, app.Manifest.Package)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.apps[app.Package] = app
	s.listing.invalidate()
	return nil
}

// Get retrieves an app by package name.
func (s *AppStore) Get(pkg string) (StoreApp, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	app, ok := s.apps[pkg]
	if !ok {
		return StoreApp{}, fmt.Errorf("%w: app %q", ErrNotFound, pkg)
	}
	return app, nil
}

// List returns all published apps sorted by package.
func (s *AppStore) List() []StoreApp {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.listLocked()
}

func (s *AppStore) listLocked() []StoreApp {
	out := make([]StoreApp, 0, len(s.apps))
	for _, a := range s.apps {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Package < out[j].Package })
	return out
}

// ListingJSON returns the portal's GET /api/apps body: List without APK
// bytes, as encoding/json's Encoder writes it (trailing newline
// included). The body is encoded once per Publish and shared between
// readers, who must not modify it.
func (s *AppStore) ListingJSON() ([]byte, error) {
	s.mu.Lock()
	if body := s.listing.body; body != nil {
		s.mu.Unlock()
		return body, nil
	}
	gen := s.listing.gen
	apps := s.listLocked()
	s.mu.Unlock()

	for i := range apps {
		apps[i].APK = nil
	}
	body, err := json.Marshal(apps)
	if err != nil {
		return nil, err
	}
	body = append(body, '\n')
	s.mu.Lock()
	s.listing.install(gen, body)
	s.mu.Unlock()
	return body, nil
}

// SanitizeName makes a user-supplied name safe for use as a container and
// namespace identifier.
func SanitizeName(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-':
			b.WriteRune(r)
		case r >= 'A' && r <= 'Z':
			b.WriteRune(r + ('a' - 'A'))
		default:
			b.WriteByte('-')
		}
	}
	out := b.String()
	if out == "" {
		out = "vdrone"
	}
	return out
}
