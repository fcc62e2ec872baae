// Lock-rank declarations: the repository's sanctioned global lock-
// acquisition order, enforced by the lockorder analyzer. Ascending rank is
// the only permitted nesting direction — acquiring a lower-ranked lock
// while holding a higher-ranked one, or nesting two locks of equal rank,
// is convicted by androne-vet with the witness path and both ranks named.
//
// The ranks below cover every nesting edge the lock-set engine observes
// in the tree today, grouped by chain:
//
//   - App lifecycle: a survey app's own lock may wrap the Android app
//     handle, which may wrap the binder driver's registry lock (client
//     setup takes a transaction under the app handle).
//   - Container runtime: the runtime table lock wraps the per-container
//     lock during Start.
//   - Drone persistence: the virtual drone's state lock wraps the energy
//     allotment lock while snapshotting.
//   - Cloud VDR: the repository's manifest lock wraps the content-
//     addressed blob store's lock while a save puts and unrefs layers, so
//     the quota check and the layer swap commit atomically.
//
// Locks with no rank are unconstrained by this table (their nesting is
// still watched by the cycle and inconsistent-pair rules); add a rank here
// the first time a new nesting edge is deliberate, so the next accidental
// reversal names the rule it broke.
//
//vet:lockrank 10 androne/internal/apps.Survey.mu app-side lock, outermost
//vet:lockrank 20 androne/internal/android.App.mu app handle wraps binder calls
//vet:lockrank 30 androne/internal/binder.Driver.mu driver registry, innermost of the app chain
//vet:lockrank 40 androne/internal/container.Runtime.mu runtime table wraps per-container locks
//vet:lockrank 50 androne/internal/container.Container.mu per-container state
//vet:lockrank 60 androne/internal/core.VirtualDrone.mu drone state wraps the energy allotment
//vet:lockrank 70 androne/internal/energy.Allotment.mu energy accounting leaf
//vet:lockrank 100 androne/internal/cloud.VDR.mu manifest lock wraps blob-store puts/unrefs
//vet:lockrank 110 androne/internal/cloud.BlobStore.mu content-addressed store leaf
package core
