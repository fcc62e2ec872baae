// Package container provides AnDrone's lightweight container runtime. It
// models what AnDrone uses Docker for on the drone: containers built from
// common read-only base disk images layered together with a writable layer
// on top, shared base layers across virtual drones to reduce storage,
// resource restrictions to prevent one virtual drone interfering with
// others, and built-in support for checkpointing a container (its diff from
// the base image) so virtual drones can be moved to the cloud, stored
// offline in the VDR, and reinstated on other drone hardware.
package container

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Errors returned by the runtime.
var (
	ErrNotFound     = errors.New("container: not found")
	ErrExists       = errors.New("container: already exists")
	ErrOutOfMemory  = errors.New("container: insufficient memory")
	ErrBadState     = errors.New("container: invalid state for operation")
	ErrFileNotFound = errors.New("container: file not found")
)

// whiteout marks a path deleted in an upper layer, Docker-style.
const whiteout = ".wh."

// Layer is an immutable, content-addressed set of files.
type Layer struct {
	digest string
	files  map[string][]byte
}

// Digest returns the layer's content address.
func (l *Layer) Digest() string { return l.digest }

// Size returns the total bytes of file content in the layer.
func (l *Layer) Size() int {
	var n int
	for _, b := range l.files {
		n += len(b)
	}
	return n
}

// Files returns the sorted paths in the layer.
func (l *Layer) Files() []string {
	out := make([]string, 0, len(l.files))
	for p := range l.files {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// NewLayer builds a content-addressed layer from files. The file map is
// copied; the layer never aliases caller memory.
func NewLayer(files map[string][]byte) *Layer {
	cp := make(map[string][]byte, len(files))
	paths := make([]string, 0, len(files))
	for p, b := range files {
		cp[p] = append([]byte(nil), b...)
		paths = append(paths, p)
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		fmt.Fprintf(h, "%s\x00%d\x00", p, len(cp[p]))
		h.Write(cp[p])
		h.Write([]byte{0})
	}
	return &Layer{digest: hex.EncodeToString(h.Sum(nil)), files: cp}
}

// Image is an ordered stack of layers (bottom first) plus metadata.
type Image struct {
	Name   string
	Layers []*Layer // bottom to top
}

// lookup reads a path through the image's layer stack, honoring whiteouts.
func (img *Image) lookup(path string) ([]byte, bool) {
	for i := len(img.Layers) - 1; i >= 0; i-- {
		l := img.Layers[i]
		if _, deleted := l.files[whiteout+path]; deleted {
			return nil, false
		}
		if b, ok := l.files[path]; ok {
			return b, true
		}
	}
	return nil, false
}

// Store is a content-addressed layer and image store shared by the runtime
// and the cloud VDR. Identical layers are stored once regardless of how many
// images or containers reference them.
type Store struct {
	mu     sync.Mutex
	layers map[string]*Layer
	images map[string]*Image
}

// NewStore creates an empty store.
func NewStore() *Store {
	return &Store{layers: make(map[string]*Layer), images: make(map[string]*Image)}
}

// AddLayer deduplicates and stores a layer, returning the canonical
// instance.
func (s *Store) AddLayer(l *Layer) *Layer {
	s.mu.Lock()
	defer s.mu.Unlock()
	if existing, ok := s.layers[l.digest]; ok {
		return existing
	}
	s.layers[l.digest] = l
	return l
}

// AddImage registers an image, deduplicating its layers.
func (s *Store) AddImage(img *Image) *Image {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, l := range img.Layers {
		if existing, ok := s.layers[l.digest]; ok {
			img.Layers[i] = existing
		} else {
			s.layers[l.digest] = l
		}
	}
	s.images[img.Name] = img
	return img
}

// Image retrieves a registered image by name.
func (s *Store) Image(name string) (*Image, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	img, ok := s.images[name]
	if !ok {
		return nil, fmt.Errorf("%w: image %q", ErrNotFound, name)
	}
	return img, nil
}

// Layer retrieves a layer by digest.
func (s *Store) Layer(digest string) (*Layer, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, ok := s.layers[digest]
	if !ok {
		return nil, fmt.Errorf("%w: layer %s", ErrNotFound, digest)
	}
	return l, nil
}

// imageArchive is the serialized form of an image: named layer stack with
// full contents, self-verifying by digest.
type imageArchive struct {
	Name   string `json:"name"`
	Layers []struct {
		Digest string            `json:"digest"`
		Files  map[string][]byte `json:"files"`
	} `json:"layers"`
}

// ExportImage serializes an image (all layers) for shipping to another
// store — how base images reach new drone hardware or the cloud VDR.
func (s *Store) ExportImage(name string) ([]byte, error) {
	img, err := s.Image(name)
	if err != nil {
		return nil, err
	}
	var arc imageArchive
	arc.Name = img.Name
	for _, l := range img.Layers {
		entry := struct {
			Digest string            `json:"digest"`
			Files  map[string][]byte `json:"files"`
		}{Digest: l.digest, Files: l.files}
		arc.Layers = append(arc.Layers, entry)
	}
	return json.Marshal(arc)
}

// ImportImage reinstates an exported image, verifying each layer's content
// address and deduplicating against layers already present.
func (s *Store) ImportImage(data []byte) (*Image, error) {
	var arc imageArchive
	if err := json.Unmarshal(data, &arc); err != nil {
		return nil, fmt.Errorf("container: bad image archive: %w", err)
	}
	if arc.Name == "" {
		return nil, errors.New("container: image archive has no name")
	}
	img := &Image{Name: arc.Name}
	for i, le := range arc.Layers {
		l := NewLayer(le.Files)
		if l.digest != le.Digest {
			return nil, fmt.Errorf("container: layer %d digest mismatch (corrupt archive)", i)
		}
		img.Layers = append(img.Layers, l)
	}
	return s.AddImage(img), nil
}

// StorageBytes returns the total unique bytes stored — the figure that
// layered images keep small when many virtual drones share a base.
func (s *Store) StorageBytes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int
	for _, l := range s.layers {
		n += l.Size()
	}
	return n
}

// State is a container lifecycle state.
type State int

// Container lifecycle states.
const (
	Created State = iota
	Running
	Stopped
)

func (s State) String() string {
	switch s {
	case Created:
		return "created"
	case Running:
		return "running"
	case Stopped:
		return "stopped"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Limits are the per-container resource restrictions AnDrone places on
// virtual drones to prevent abuse and excessive consumption.
type Limits struct {
	// MemoryMB is the container's resident memory footprint reserved at
	// start. Starting fails if the runtime cannot satisfy it.
	MemoryMB int
	// CPUShares is the container's relative CPU weight (Docker semantics;
	// 0 means the default of 1024).
	CPUShares int
}

func (l Limits) shares() int {
	if l.CPUShares <= 0 {
		return 1024
	}
	return l.CPUShares
}

// Container is a running or stoppable instance of an image with a private
// writable layer on top.
type Container struct {
	rt     *Runtime
	name   string
	image  *Image
	limits Limits

	mu    sync.Mutex
	state State
	upper map[string][]byte // writable layer, including whiteout markers
}

// Name returns the container's identifier (also its Binder namespace name).
func (c *Container) Name() string { return c.name }

// Image returns the image the container was created from.
func (c *Container) Image() *Image { return c.image }

// Limits returns the container's resource limits.
func (c *Container) Limits() Limits { return c.limits }

// State returns the current lifecycle state.
func (c *Container) State() State {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state
}

// ReadFile reads a path through the writable layer and image stack.
func (c *Container) ReadFile(path string) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, deleted := c.upper[whiteout+path]; deleted {
		return nil, fmt.Errorf("%w: %s", ErrFileNotFound, path)
	}
	if b, ok := c.upper[path]; ok {
		return append([]byte(nil), b...), nil
	}
	if b, ok := c.image.lookup(path); ok {
		return append([]byte(nil), b...), nil
	}
	return nil, fmt.Errorf("%w: %s", ErrFileNotFound, path)
}

// WriteFile writes a path into the writable layer (copy-on-write; the image
// is never modified).
func (c *Container) WriteFile(path string, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.upper, whiteout+path)
	c.upper[path] = append([]byte(nil), data...)
}

// AppendFile appends data to path, leaving the bytes a ReadFile, a
// concatenation and a WriteFile would: a missing or whited-out path
// starts empty, and a file only in the image is copied up first. The
// writable layer's slices never leave the container — ReadFile,
// DiffLayer, Checkpoint and Restore all copy — so a file already in it
// grows in place, and a log that apps append to costs amortised O(len(data)).
func (c *Container) AppendFile(path string, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cur, ok := c.upper[path]
	if _, deleted := c.upper[whiteout+path]; !ok && !deleted {
		if b, inImage := c.image.lookup(path); inImage {
			cur = append(make([]byte, 0, len(b)+len(data)), b...)
		}
	}
	delete(c.upper, whiteout+path)
	c.upper[path] = append(cur, data...)
}

// RemoveFile deletes a path from the container's view. Files from the image
// are masked with a whiteout marker.
func (c *Container) RemoveFile(path string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.visibleLocked(path) {
		return fmt.Errorf("%w: %s", ErrFileNotFound, path)
	}
	delete(c.upper, path)
	if _, inImage := c.image.lookup(path); inImage {
		c.upper[whiteout+path] = nil
	}
	return nil
}

// ListFiles returns the sorted paths visible in the container.
func (c *Container) ListFiles() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	candidates := make(map[string]bool)
	for _, l := range c.image.Layers {
		for p := range l.files {
			if !strings.HasPrefix(p, whiteout) {
				candidates[p] = true
			}
		}
	}
	for p := range c.upper {
		if !strings.HasPrefix(p, whiteout) {
			candidates[p] = true
		}
	}
	var out []string
	for p := range candidates {
		if c.visibleLocked(p) {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// visibleLocked reports whether path resolves to content through the
// writable layer and image stack. Caller holds c.mu.
func (c *Container) visibleLocked(path string) bool {
	if _, deleted := c.upper[whiteout+path]; deleted {
		return false
	}
	if _, ok := c.upper[path]; ok {
		return true
	}
	_, ok := c.image.lookup(path)
	return ok
}

// DiffLayer captures the writable layer as a content-addressed layer — the
// container's differences from its base image, which is all the VDR stores.
func (c *Container) DiffLayer() *Layer {
	c.mu.Lock()
	defer c.mu.Unlock()
	return NewLayer(c.upper)
}

// Checkpoint is a serializable container state: its image reference plus
// diff layer. A checkpoint is fully self-contained given access to a store
// holding the base image, and can be reinstated on any drone (or non-drone)
// hardware.
type Checkpoint struct {
	Name      string            `json:"name"`
	ImageName string            `json:"image"`
	Limits    Limits            `json:"limits"`
	Upper     map[string][]byte `json:"upper"`
}

// Checkpoint serializes the container's state. The container may be in any
// state; AnDrone checkpoints stopped virtual drones at flight end.
func (c *Container) Checkpoint() ([]byte, error) {
	c.mu.Lock()
	upper := make(map[string][]byte, len(c.upper))
	for p, b := range c.upper { //vet:allow detguard checkpoint copy; JSON encoding sorts map keys
		upper[p] = append([]byte(nil), b...)
	}
	c.mu.Unlock()
	return json.Marshal(Checkpoint{
		Name:      c.name,
		ImageName: c.image.Name,
		Limits:    c.limits,
		Upper:     upper,
	})
}

// Runtime manages containers against a fixed memory budget, mirroring the
// prototype drone where 880 MB of the Pi's 1 GB is available and each
// virtual drone needs ~185 MB: starting a container that does not fit fails
// without interfering with the ones already running.
type Runtime struct {
	store *Store

	mu         sync.Mutex
	memTotalMB int
	memUsedMB  int
	containers map[string]*Container
}

// NewRuntime creates a runtime with the given memory budget in MB backed by
// the store.
func NewRuntime(store *Store, memTotalMB int) *Runtime {
	return &Runtime{
		store:      store,
		memTotalMB: memTotalMB,
		containers: make(map[string]*Container),
	}
}

// Store returns the runtime's backing image store.
func (rt *Runtime) Store() *Store { return rt.store }

// MemoryTotalMB returns the runtime's memory budget.
func (rt *Runtime) MemoryTotalMB() int { return rt.memTotalMB }

// MemoryUsedMB returns the memory reserved by running containers.
func (rt *Runtime) MemoryUsedMB() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.memUsedMB
}

// Create instantiates a container from a named image. The container starts
// in the Created state and consumes no memory until started.
func (rt *Runtime) Create(name, imageName string, limits Limits) (*Container, error) {
	img, err := rt.store.Image(imageName)
	if err != nil {
		return nil, err
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if _, ok := rt.containers[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	c := &Container{
		rt:     rt,
		name:   name,
		image:  img,
		limits: limits,
		state:  Created,
		upper:  make(map[string][]byte),
	}
	rt.containers[name] = c
	return c, nil
}

// Restore reinstates a checkpointed container: same image, same diff layer.
func (rt *Runtime) Restore(data []byte) (*Container, error) {
	var cp Checkpoint
	if err := json.Unmarshal(data, &cp); err != nil {
		return nil, fmt.Errorf("container: bad checkpoint: %w", err)
	}
	c, err := rt.Create(cp.Name, cp.ImageName, cp.Limits)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	for p, b := range cp.Upper { //vet:allow detguard restore copy; per-key writes are order-independent
		c.upper[p] = append([]byte(nil), b...)
	}
	c.mu.Unlock()
	return c, nil
}

// Start reserves the container's memory and transitions it to Running.
func (rt *Runtime) Start(name string) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	c, ok := rt.containers[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state == Running {
		return fmt.Errorf("%w: %q is already running", ErrBadState, name)
	}
	if rt.memUsedMB+c.limits.MemoryMB > rt.memTotalMB {
		return fmt.Errorf("%w: need %d MB, %d of %d MB in use",
			ErrOutOfMemory, c.limits.MemoryMB, rt.memUsedMB, rt.memTotalMB)
	}
	rt.memUsedMB += c.limits.MemoryMB
	c.state = Running
	return nil
}

// Stop releases the container's memory and transitions it to Stopped.
func (rt *Runtime) Stop(name string) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	c, ok := rt.containers[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state != Running {
		return fmt.Errorf("%w: %q is not running", ErrBadState, name)
	}
	rt.memUsedMB -= c.limits.MemoryMB
	c.state = Stopped
	return nil
}

// Remove deletes a non-running container.
func (rt *Runtime) Remove(name string) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	c, ok := rt.containers[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if c.State() == Running {
		return fmt.Errorf("%w: %q is running", ErrBadState, name)
	}
	delete(rt.containers, name)
	return nil
}

// Get retrieves a container by name.
func (rt *Runtime) Get(name string) (*Container, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	c, ok := rt.containers[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return c, nil
}

// List returns the names of all containers, sorted.
func (rt *Runtime) List() []string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make([]string, 0, len(rt.containers))
	for name := range rt.containers {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Running returns the names of running containers, sorted.
func (rt *Runtime) Running() []string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var out []string
	for name, c := range rt.containers {
		if c.State() == Running {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// TotalCPUShares returns the sum of CPU shares across running containers,
// used by the scheduler model to apportion cores.
func (rt *Runtime) TotalCPUShares() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var total int
	for _, c := range rt.containers {
		if c.State() == Running {
			total += c.limits.shares()
		}
	}
	return total
}

// CPUFraction returns the fraction of CPU the named running container is
// entitled to under proportional-share scheduling.
func (rt *Runtime) CPUFraction(name string) (float64, error) {
	rt.mu.Lock()
	c, ok := rt.containers[name]
	rt.mu.Unlock()
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	total := rt.TotalCPUShares()
	if total == 0 || c.State() != Running {
		return 0, nil
	}
	return float64(c.limits.shares()) / float64(total), nil
}
