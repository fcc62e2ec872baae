package cloud

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
	"unicode/utf8"

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
// A VDREntry carries the checkpoint as a typed container.Checkpoint. Save
// encodes each layer once, and those bytes are what gets hashed; Load
// decodes the digest-verified layers straight back into a typed checkpoint.
// The container name travels in the manifest, so the VDC can refuse an
// entry whose checkpoint belongs to another virtual drone (splice
// detection) before it creates anything.

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
	// ContainerName is the checkpoint's container name, which no layer
	// holds; the VDC compares it against the definition's identity on
	// restore (splice detection).
	ContainerName string     `json:"container-name,omitempty"`
	Owner         string     `json:"owner"`
	SavedAt       time.Time  `json:"saved-at"`
	Completed     bool       `json:"completed"`
	Layers        []LayerRef `json:"layers"`
}

// VDREntry is a stored virtual drone as the VDC hands it over and gets it
// back: its definition plus, when it has flown before, its container
// checkpoint (diff from the base image), so it can be resumed on a later
// flight, on any drone hardware.
type VDREntry struct {
	Name  string
	Owner string
	// Definition is the canonical definition JSON (core's
	// Definition.Encode), stored as the definition layer verbatim.
	Definition []byte
	// Checkpoint is nil when the entry holds only a definition, as for a
	// virtual drone that never ran.
	Checkpoint *container.Checkpoint
	SavedAt    time.Time
	Completed  bool
}

// VDR is the virtual drone repository.
type VDR struct {
	mu          sync.Mutex
	store       *BlobStore
	manifests   map[string]*Manifest
	ownerLayers map[string]int
	maxLayers   int // per-tenant live layer quota
	listing     listingCache
	// listed is set once ManifestsJSON has been called. From then on Save
	// and Delete rebuild the listing themselves; a VDR nobody lists (a
	// mission's, a test rig's) leaves it to the next read.
	listed bool
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
// layer. It fails if a path is not valid UTF-8, which the layers' JSON
// would not carry intact.
func splitUpper(upper map[string][]byte) (appset, state map[string][]byte, err error) {
	appset = make(map[string][]byte)
	state = make(map[string][]byte)
	for p, b := range upper { //vet:allow detguard per-key writes are order-independent, the error names no path, and json.Marshal sorts map keys
		switch {
		case !utf8.ValidString(p):
			return nil, nil, errors.New("a checkpoint path is not valid UTF-8")
		case p != FlightProgressPath && strings.HasPrefix(p, "/data/"):
			appset[p] = b
		default:
			state[p] = b
		}
	}
	return appset, state, nil
}

// baseLayer is the shared part of every checkpoint on the same image.
type baseLayer struct {
	Image  string           `json:"image"`
	Limits container.Limits `json:"limits"`
}

// buildLayers encodes an entry's layers: the definition as it is, and the
// checkpoint as its base layer plus the non-empty app-set and state
// layers.
func buildLayers(e VDREntry) ([]layerPayload, error) {
	var layers []layerPayload
	if len(e.Definition) > 0 {
		layers = append(layers, layerPayload{LayerDefinition, e.Definition})
	}
	cp := e.Checkpoint
	if cp == nil {
		return layers, nil
	}
	if !utf8.ValidString(cp.ImageName) {
		return nil, errors.New("the checkpoint's image name is not valid UTF-8")
	}
	base, err := json.Marshal(baseLayer{Image: cp.ImageName, Limits: cp.Limits})
	if err != nil {
		return nil, err
	}
	layers = append(layers, layerPayload{LayerBase, base})
	appset, state, err := splitUpper(cp.Upper)
	if err != nil {
		return nil, err
	}
	for _, part := range []struct {
		kind  string
		files map[string][]byte
	}{{LayerAppSet, appset}, {LayerState, state}} {
		if len(part.files) == 0 {
			continue
		}
		data, err := json.Marshal(part.files)
		if err != nil {
			return nil, err
		}
		layers = append(layers, layerPayload{part.kind, data})
	}
	return layers, nil
}

// Save stores or updates a virtual drone entry, deduplicating its layers
// against everything already in the blob store. It fails with
// ErrQuotaExceeded when the entry would push its owner past the per-tenant
// layer quota (the previous generation of the same entry is counted as
// replaced, so steady-state churn needs no headroom).
func (v *VDR) Save(e VDREntry) error {
	listed, err := v.save(e)
	if err != nil {
		return err
	}
	if listed {
		v.rebuildListing()
	}
	st := v.store.Stats()
	mVDRDedupRatio.Set(st.DedupRatio())
	mVDRLiveBytes.Set(float64(st.LiveBytes))
	return nil
}

// save stores e and reports whether the listing has been read.
func (v *VDR) save(e VDREntry) (listed bool, err error) {
	layers, err := buildLayers(e)
	if err != nil {
		return false, fmt.Errorf("virtual drone %q: %w", e.Name, err)
	}
	var containerName string
	if e.Checkpoint != nil {
		containerName = e.Checkpoint.Name
	}

	v.mu.Lock()
	defer v.mu.Unlock()
	old := v.manifests[e.Name]
	owned := v.ownerLayers[e.Owner]
	if old != nil && old.Owner == e.Owner {
		owned -= len(old.Layers)
	}
	if v.maxLayers > 0 && owned+len(layers) > v.maxLayers {
		return false, fmt.Errorf("%w: tenant %q holds %d VDR layers, +%d exceeds the %d-layer quota",
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
	return v.listed, nil
}

// assemble decodes an entry from a manifest copy: the definition layer
// verbatim, and the checkpoint from its base layer with the app-set and
// state files merged into one writable layer.
func (v *VDR) assemble(m Manifest) (VDREntry, error) {
	e := VDREntry{Name: m.Name, Owner: m.Owner, SavedAt: m.SavedAt, Completed: m.Completed}
	var base *baseLayer
	upper := make(map[string][]byte)
	for _, ref := range m.Layers {
		data, err := v.store.Get(ref.Digest)
		switch {
		case err != nil:
		case ref.Kind == LayerDefinition:
			e.Definition = data
		case ref.Kind == LayerBase:
			base = new(baseLayer)
			err = json.Unmarshal(data, base)
		case ref.Kind == LayerAppSet || ref.Kind == LayerState:
			err = json.Unmarshal(data, &upper) // adds the layer's files to upper
		default:
			err = errors.New("unknown layer kind")
		}
		if err != nil {
			// A missing layer is as corrupt as one that fails its digest:
			// either way the entry exists but cannot be loaded.
			return VDREntry{}, fmt.Errorf("%w: virtual drone %q, %s layer: %v", ErrLayerCorrupt, m.Name, ref.Kind, err)
		}
	}
	if base != nil {
		e.Checkpoint = &container.Checkpoint{
			Name: m.ContainerName, ImageName: base.Image, Limits: base.Limits, Upper: upper,
		}
	}
	return e, nil
}

// Load retrieves a virtual drone entry, digest-verified layer by layer and
// decoded into the typed checkpoint Save was handed. It fails with
// ErrNotFound when no entry has the name, and with ErrLayerCorrupt when a
// stored layer is missing, fails its digest or does not decode.
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
	if v.delete(name) {
		v.rebuildListing()
	}
}

// delete removes name and reports whether the listing needs a rebuild:
// an entry went and the listing has been read.
func (v *VDR) delete(name string) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	m, ok := v.manifests[name]
	if !ok {
		return false
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
	return v.listed
}

// OwnerLayers returns how many live layers owner holds (the quota input).
func (v *VDR) OwnerLayers(owner string) int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.ownerLayers[owner]
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
// between readers, who must not modify it. Once the listing has been read,
// the writer encodes it when its write is done; until then, and for a read
// that raced a write's rebuild, the read encodes it.
func (v *VDR) ManifestsJSON() ([]byte, error) {
	v.mu.Lock()
	v.listed = true
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

// rebuildListing encodes the listing after a write, so the reads after it
// find the body. An encode error is left for the next read to meet.
func (v *VDR) rebuildListing() { _, _ = v.ManifestsJSON() }
