package cloud

import "fmt"

// CorruptLayer flips the first byte of the stored layer of the given kind
// in name's entry, so that the layer fails its digest on the next Load.
func CorruptLayer(v *VDR, name, kind string) error {
	m, err := v.Manifest(name)
	if err != nil {
		return err
	}
	for _, l := range m.Layers {
		if l.Kind == kind {
			v.store.mu.Lock()
			defer v.store.mu.Unlock()
			v.store.blobs[l.Digest].data[0] ^= 0xFF
			return nil
		}
	}
	return fmt.Errorf("virtual drone %q has no %s layer", name, kind)
}
