package cloud

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"androne/internal/container"
)

// The virtual drone repository stores checkpoints content-addressed: each
// entry is a small manifest referencing hashed layers in a BlobStore. A
// checkpoint splits along the same seams the paper's Docker prototype
// shares (§4): the base image reference, the installed app set under
// /data/, and the per-flight runtime state (progress, outputs). Layers that
// do not change between saves — the definition while an order repeats, the
// app set across a save/restore churn, the base reference across every
// drone in the fleet — are stored once and reference-counted, which is what
// makes checkpoint dedup a measurable number instead of a slide-ware claim.
//
// The pre-layered VDREntry API (Save/Load/Delete/List) is preserved as a
// compatibility shim: Load reassembles an entry bit-identical to what Save
// was handed, so the VDC's splice-detection contract (a checkpoint whose
// container name disagrees with its definition must not come up) holds
// unchanged through the new format. Checkpoints that do not round-trip the
// canonical container encoding — hand-built or corrupted test entries —
// fall back to a single opaque layer rather than guessing.

// FlightProgressPath is where the VDC persists per-flight progress inside
// a container. It changes every save, so the layer splitter keeps it out of
// the stable app-set layer; package core writes it (the constant lives here
// because core already imports cloud, not the other way around).
const FlightProgressPath = "/data/androne/progress.json"

// Layer kinds.
const (
	LayerDefinition = "definition" // the virtual drone definition JSON
	LayerBase       = "base"       // base image reference + limits
	LayerAppSet     = "appset"     // /data/ upper files (app + instance state)
	LayerState      = "state"      // everything else: progress, outputs
	LayerOpaque     = "opaque"     // non-canonical checkpoint, stored whole
)

// LayerRef points a manifest at one content-addressed layer.
type LayerRef struct {
	Kind   string `json:"kind"`
	Digest string `json:"digest"`
	Size   int64  `json:"size"`
}

// Manifest is a stored virtual drone: identity plus layer references. It is
// what the portal lists — a few hundred bytes regardless of checkpoint
// size.
type Manifest struct {
	Name string `json:"name"`
	// ContainerName is the name recorded inside the checkpoint, kept
	// separately so reassembly is exact; the VDC compares it against the
	// definition's identity on restore (splice detection).
	ContainerName string     `json:"container-name,omitempty"`
	Owner         string     `json:"owner"`
	SavedAt       time.Time  `json:"saved-at"`
	Completed     bool       `json:"completed"`
	Layers        []LayerRef `json:"layers"`
}

// VDREntry is the compatibility view of a stored virtual drone: its JSON
// definition plus, when it has flown before, its container checkpoint (diff
// from the base image) so it can be resumed on a later flight, on any drone
// hardware.
type VDREntry struct {
	Name       string    `json:"name"`
	Owner      string    `json:"owner"`
	Definition []byte    `json:"definition"`
	Checkpoint []byte    `json:"checkpoint,omitempty"`
	SavedAt    time.Time `json:"saved-at"`
	Completed  bool      `json:"completed"`
}

// VDR is the virtual drone repository.
type VDR struct {
	mu          sync.Mutex
	store       *BlobStore
	manifests   map[string]*Manifest
	ownerLayers map[string]int
	maxLayers   int // per-tenant live layer quota
	listing     listingCache
}

// NewVDR creates a repository over a private blob store with default
// quotas.
func NewVDR() *VDR {
	return NewVDRWith(NewBlobStore(), DefaultQuotas())
}

// NewVDRWith creates a repository over store — shared stores are how
// dedup spans repositories (one service plane, many drones) — with q's
// per-tenant layer quota.
func NewVDRWith(store *BlobStore, q Quotas) *VDR {
	return &VDR{
		store:       store,
		manifests:   make(map[string]*Manifest),
		ownerLayers: make(map[string]int),
		maxLayers:   q.MaxVDRLayersPerTenant,
	}
}

// Store exposes the underlying blob store (dedup stats live there).
func (v *VDR) Store() *BlobStore { return v.store }

// layerPayload is a layer before it is content-addressed.
type layerPayload struct {
	kind string
	data []byte
}

// splitUpper partitions a checkpoint's writable layer: /data/ paths except
// the flight-progress file form the app-set layer, the rest the state
// layer. Keys are walked in sorted order so the split is deterministic.
func splitUpper(upper map[string][]byte) (appset, state map[string][]byte) {
	appset = make(map[string][]byte)
	state = make(map[string][]byte)
	paths := make([]string, 0, len(upper))
	for p := range upper {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if p != FlightProgressPath && strings.HasPrefix(p, "/data/") {
			appset[p] = upper[p]
		} else {
			state[p] = upper[p]
		}
	}
	return appset, state
}

// baseLayer is the shared part of every checkpoint on the same image.
type baseLayer struct {
	Image  string           `json:"image"`
	Limits container.Limits `json:"limits"`
}

// buildLayers decomposes an entry. The checkpoint splits into
// base/appset/state only when the decomposition provably reassembles to the
// original bytes; otherwise it is stored as one opaque layer.
func buildLayers(e VDREntry) (layers []layerPayload, containerName string) {
	if len(e.Definition) > 0 {
		layers = append(layers, layerPayload{LayerDefinition, e.Definition})
	}
	if len(e.Checkpoint) == 0 {
		return layers, ""
	}
	var cp container.Checkpoint
	if err := json.Unmarshal(e.Checkpoint, &cp); err == nil {
		appset, state := splitUpper(cp.Upper)
		base, berr := json.Marshal(baseLayer{Image: cp.ImageName, Limits: cp.Limits})
		appsetJSON, aerr := json.Marshal(appset)
		stateJSON, serr := json.Marshal(state)
		if berr == nil && aerr == nil && serr == nil {
			rebuilt, rerr := assembleCheckpoint(cp.Name, base, appsetJSON, stateJSON)
			if rerr == nil && bytes.Equal(rebuilt, e.Checkpoint) {
				split := layers
				split = append(split, layerPayload{LayerBase, base})
				if len(appset) > 0 {
					split = append(split, layerPayload{LayerAppSet, appsetJSON})
				}
				if len(state) > 0 {
					split = append(split, layerPayload{LayerState, stateJSON})
				}
				return split, cp.Name
			}
		}
	}
	return append(layers, layerPayload{LayerOpaque, e.Checkpoint}), ""
}

// assembleCheckpoint is the inverse of buildLayers' split: canonical
// container.Checkpoint JSON from the base layer plus merged upper maps.
func assembleCheckpoint(name string, base, appsetJSON, stateJSON []byte) ([]byte, error) {
	var b baseLayer
	if err := json.Unmarshal(base, &b); err != nil {
		return nil, fmt.Errorf("%w: base layer: %v", ErrLayerCorrupt, err)
	}
	upper := make(map[string][]byte)
	for _, part := range [][]byte{appsetJSON, stateJSON} {
		if part == nil {
			continue
		}
		var m map[string][]byte
		if err := json.Unmarshal(part, &m); err != nil {
			return nil, fmt.Errorf("%w: upper layer: %v", ErrLayerCorrupt, err)
		}
		paths := make([]string, 0, len(m))
		for p := range m {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		for _, p := range paths {
			upper[p] = m[p]
		}
	}
	return json.Marshal(container.Checkpoint{
		Name: name, ImageName: b.Image, Limits: b.Limits, Upper: upper,
	})
}

// Save stores or updates a virtual drone entry, deduplicating its layers
// against everything already in the blob store. It fails with
// ErrQuotaExceeded when the entry would push its owner past the per-tenant
// layer quota (the previous generation of the same entry is counted as
// replaced, so steady-state churn needs no headroom).
func (v *VDR) Save(e VDREntry) error {
	if err := v.save(e); err != nil {
		return err
	}
	st := v.store.Stats()
	mVDRDedupRatio.Set(st.DedupRatio())
	mVDRLiveBytes.Set(float64(st.LiveBytes))
	return nil
}

func (v *VDR) save(e VDREntry) error {
	layers, containerName := buildLayers(e)

	v.mu.Lock()
	defer v.mu.Unlock()
	old := v.manifests[e.Name]
	owned := v.ownerLayers[e.Owner]
	if old != nil && old.Owner == e.Owner {
		owned -= len(old.Layers)
	}
	if v.maxLayers > 0 && owned+len(layers) > v.maxLayers {
		return fmt.Errorf("%w: tenant %q holds %d VDR layers, +%d exceeds the %d-layer quota",
			ErrQuotaExceeded, e.Owner, owned, len(layers), v.maxLayers)
	}

	m := &Manifest{
		Name:          e.Name,
		ContainerName: containerName,
		Owner:         e.Owner,
		SavedAt:       e.SavedAt,
		Completed:     e.Completed,
		Layers:        make([]LayerRef, 0, len(layers)),
	}
	for _, lp := range layers {
		d := v.store.Put(lp.data)
		m.Layers = append(m.Layers, LayerRef{Kind: lp.kind, Digest: d, Size: int64(len(lp.data))})
	}
	if old != nil {
		v.ownerLayers[old.Owner] -= len(old.Layers)
		for _, ref := range old.Layers {
			v.store.Unref(ref.Digest)
		}
	}
	v.manifests[e.Name] = m
	v.ownerLayers[e.Owner] += len(m.Layers)
	v.listing.invalidate()
	return nil
}

// assemble reconstructs the compatibility entry from a manifest copy.
func (v *VDR) assemble(m Manifest) (VDREntry, error) {
	e := VDREntry{Name: m.Name, Owner: m.Owner, SavedAt: m.SavedAt, Completed: m.Completed}
	var base, appset, state []byte
	for _, ref := range m.Layers {
		data, err := v.store.Get(ref.Digest)
		if err != nil {
			return VDREntry{}, fmt.Errorf("virtual drone %q, %s layer: %w", m.Name, ref.Kind, err)
		}
		switch ref.Kind {
		case LayerDefinition:
			e.Definition = data
		case LayerOpaque:
			e.Checkpoint = data
		case LayerBase:
			base = data
		case LayerAppSet:
			appset = data
		case LayerState:
			state = data
		default:
			return VDREntry{}, fmt.Errorf("%w: virtual drone %q has unknown layer kind %q",
				ErrLayerCorrupt, m.Name, ref.Kind)
		}
	}
	if base != nil {
		cp, err := assembleCheckpoint(m.ContainerName, base, appset, state)
		if err != nil {
			return VDREntry{}, fmt.Errorf("virtual drone %q: %w", m.Name, err)
		}
		e.Checkpoint = cp
	}
	return e, nil
}

// Load retrieves a virtual drone entry, reassembled bit-identical to what
// Save was handed and digest-verified layer by layer.
func (v *VDR) Load(name string) (VDREntry, error) {
	v.mu.Lock()
	m, ok := v.manifests[name]
	if !ok {
		v.mu.Unlock()
		return VDREntry{}, fmt.Errorf("%w: virtual drone %q", ErrNotFound, name)
	}
	cp := copyManifest(m)
	v.mu.Unlock()
	return v.assemble(cp)
}

// Manifest returns the stored manifest for name — the cheap, layer-level
// view the portal lists.
func (v *VDR) Manifest(name string) (Manifest, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	m, ok := v.manifests[name]
	if !ok {
		return Manifest{}, fmt.Errorf("%w: virtual drone %q", ErrNotFound, name)
	}
	return copyManifest(m), nil
}

// copyManifest is a caller-owned copy of a stored manifest. (A manifest
// with no layers copies to nil Layers, listed as null.)
func copyManifest(m *Manifest) Manifest {
	cp := *m
	cp.Layers = append([]LayerRef(nil), m.Layers...)
	return cp
}

// Delete removes an entry and releases its layers; the last reference to a
// layer frees its bytes.
func (v *VDR) Delete(name string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	m, ok := v.manifests[name]
	if !ok {
		return
	}
	v.ownerLayers[m.Owner] -= len(m.Layers)
	if v.ownerLayers[m.Owner] <= 0 {
		delete(v.ownerLayers, m.Owner)
	}
	for _, ref := range m.Layers {
		v.store.Unref(ref.Digest)
	}
	delete(v.manifests, name)
	v.listing.invalidate()
}

// OwnerLayers returns how many live layers owner holds (the quota input).
func (v *VDR) OwnerLayers(owner string) int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.ownerLayers[owner]
}

// names returns manifest names sorted.
func (v *VDR) names() []string {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]string, 0, len(v.manifests))
	for n := range v.manifests {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// List returns fully reassembled entries sorted by name. Entries whose
// layers fail verification are returned with metadata only — listing must
// not hide a corrupt entry, and must not crash on one either.
func (v *VDR) List() []VDREntry {
	names := v.names()
	out := make([]VDREntry, 0, len(names))
	for _, n := range names {
		e, err := v.Load(n)
		if err != nil {
			if m, merr := v.Manifest(n); merr == nil {
				e = VDREntry{Name: m.Name, Owner: m.Owner, SavedAt: m.SavedAt, Completed: m.Completed}
			} else {
				continue
			}
		}
		out = append(out, e)
	}
	return out
}

// Manifests returns all manifests sorted by name — the portal's listing
// path, which never touches layer bytes.
func (v *VDR) Manifests() []Manifest {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.manifestsLocked()
}

func (v *VDR) manifestsLocked() []Manifest {
	out := make([]Manifest, 0, len(v.manifests))
	for _, m := range v.manifests {
		out = append(out, copyManifest(m))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ManifestsJSON returns the portal's GET /api/vdr body: json.Marshal of
// Manifests. The body is encoded once per Save or Delete and shared
// between readers, who must not modify it.
func (v *VDR) ManifestsJSON() ([]byte, error) {
	v.mu.Lock()
	if body := v.listing.body; body != nil {
		v.mu.Unlock()
		return body, nil
	}
	gen := v.listing.gen
	snap := v.manifestsLocked()
	v.mu.Unlock()

	body, err := json.Marshal(snap)
	if err != nil {
		return nil, err
	}
	v.mu.Lock()
	v.listing.install(gen, body)
	v.mu.Unlock()
	return body, nil
}
