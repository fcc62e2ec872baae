// Package nsbad is the known-bad fixture: an app-layer package reaching
// into binder namespace plumbing it has no business touching.
package nsbad

import "androne/internal/binder"

// Escape tries every guarded API from outside the trusted layers.
func Escape(d *binder.Driver, ns *binder.Namespace, p *binder.Proc) {
	ns.Attach(42)                                    // want `binder\.Attach is namespace plumbing reserved for androne/internal/android`
	_ = p.BecomeContextManager()                     // want `binder\.BecomeContextManager is namespace plumbing reserved`
	_ = p.PublishToAllNS("rogue")                    // want `binder\.PublishToAllNS is namespace plumbing reserved for androne/internal/devcon`
	_ = p.PublishToDevCon("rogue")                   // want `binder\.PublishToDevCon is namespace plumbing reserved`
	d.SetDeviceNamespace(ns)                         // want `binder\.SetDeviceNamespace is namespace plumbing reserved`
	_, _ = p.Transact(0, binder.CodeAddService, nil) // want `direct AddService transaction bypasses the namespace registration path`
}

// Fine: non-AddService transactions through an owned handle are the normal
// IPC path and stay legal.
func Fine(p *binder.Proc) {
	_, _ = p.Transact(0, binder.CodePing, nil)
}

// Suppressed demonstrates a reviewed exception.
func Suppressed(p *binder.Proc) {
	_ = p.PublishToAllNS("trusted") //vet:allow nsguard fixture: documented exception
}
