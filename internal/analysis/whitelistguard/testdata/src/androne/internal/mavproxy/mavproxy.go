// Package mavproxy is a fixture with the two legal dispatch sites and three
// illegal ones inside the proxy package itself.
package mavproxy

import "androne/internal/flight"

// Proxy owns the flight controller connection.
type Proxy struct {
	fc *flight.Controller
}

// Master returns the provider's unrestricted channel.
func (p *Proxy) Master() *Master { return &Master{fc: p.fc} }

// Master is the unrestricted master channel.
type Master struct {
	fc *flight.Controller
}

// Send forwards without filtering: the master channel is the provider's. A
// function literal called where it is written stays inside Send.
func (m *Master) Send(msg flight.Message) []flight.Message {
	return func() []flight.Message { return m.fc.HandleMessage(msg) }()
}

// VFC is a tenant's whitelist-enforcing virtual flight controller.
type VFC struct {
	proxy  *Proxy
	escape func(flight.Message) []flight.Message
}

// Send is the whitelist-checked dispatch path. The stored literal carries
// an unchecked dispatch out of it.
func (v *VFC) Send(msg flight.Message) []flight.Message {
	v.escape = func(m flight.Message) []flight.Message { return v.proxy.fc.HandleMessage(m) } // want `may only be invoked from the Send methods that enforce the whitelist, not a function literal in Send`
	return v.proxy.fc.HandleMessage(msg)
}

// Telemetry must not dispatch commands, even from inside mavproxy.
func (v *VFC) Telemetry(msg flight.Message) []flight.Message {
	return v.proxy.fc.HandleMessage(msg) // want `may only be invoked from the Send methods that enforce the whitelist, not Telemetry`
}

// Rogue has a Send method but is not one of the two sanctioned senders.
type Rogue struct {
	fc *flight.Controller
}

// Send dispatches from the wrong receiver type.
func (r *Rogue) Send(msg flight.Message) []flight.Message {
	return r.fc.HandleMessage(msg) // want `only be dispatched from \(\*Master\)\.Send or \(\*VFC\)\.Send, not \(Rogue\)\.Send`
}
