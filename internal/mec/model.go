// Package mec models the multi-user mobile-edge-computing system of the
// paper's §II: users with resource-constrained devices, one shared edge
// server S, and the energy/time cost formulas (1)–(6) that the offloading
// objective minimises.
//
// Conventions. Work is measured in abstract computation units (the node
// weights of function data-flow graphs); communication in data units (edge
// weights); computing resources in work units per second; bandwidth in data
// units per second; power in energy units per second of activity.
//
// Server contention. The paper leaves the allocation policy of S abstract
// (Iˢᵢ is "the available computing resources of uᵢ assigned by S", with a
// waiting time wtᵢ). This package implements processor sharing: the k users
// with offloaded work each receive capacity/k, and the waiting time is the
// slowdown relative to owning the whole server — wtᵢ = tsᵢ − remoteᵢ/capacity.
// That reproduces the paper's qualitative claim that "too much offloading
// will inevitably increase the load of S, and then Σtsᵢ … will also increase
// significantly". internal/sim cross-validates the decomposition with a
// discrete-event FIFO/PS queue.
package mec

import (
	"errors"
	"fmt"

	"copmecs/internal/graph"
)

// ErrBadParams is returned for non-positive capacities, powers or bandwidth.
var ErrBadParams = errors.New("mec: invalid parameters")

// Params are the shared system constants. The paper assumes ∀uᵢ: bᵢ = b,
// pᵢᶜ = pᶜ, pᵢᵗ = pᵗ ("for the simplicity of discussion"); per-user device
// speeds may still be overridden in UserState.
type Params struct {
	// ServerCapacity is the edge server's total computing resources.
	ServerCapacity float64
	// DeviceCompute is Iᶜᵢ: a device's computing resources (default for all
	// users).
	DeviceCompute float64
	// PowerCompute is pᶜ: energy per second of local computing.
	PowerCompute float64
	// PowerTransmit is pᵗ: energy per data unit transmitted. The paper notes
	// pᵗ ≫ pᶜ; Defaults reflects that.
	PowerTransmit float64
	// Bandwidth is b: data units per second between any user and S.
	Bandwidth float64
}

// Defaults returns the parameter set used by the experiments: an edge
// server 10× faster than a device, and wireless transmission markedly more
// expensive per unit than local computing.
func Defaults() Params {
	return Params{
		ServerCapacity: 5000,
		DeviceCompute:  100,
		PowerCompute:   1,
		PowerTransmit:  6,
		Bandwidth:      200,
	}
}

// Validate checks that all parameters are positive.
func (p Params) Validate() error {
	switch {
	case p.ServerCapacity <= 0:
		return fmt.Errorf("%w: server capacity %g", ErrBadParams, p.ServerCapacity)
	case p.DeviceCompute <= 0:
		return fmt.Errorf("%w: device compute %g", ErrBadParams, p.DeviceCompute)
	case p.PowerCompute <= 0:
		return fmt.Errorf("%w: compute power %g", ErrBadParams, p.PowerCompute)
	case p.PowerTransmit <= 0:
		return fmt.Errorf("%w: transmit power %g", ErrBadParams, p.PowerTransmit)
	case p.Bandwidth <= 0:
		return fmt.Errorf("%w: bandwidth %g", ErrBadParams, p.Bandwidth)
	}
	return nil
}

// LocalTime is formula (1): tᶜ = Σ wⱼ / Iᶜ.
func LocalTime(localWork, deviceCompute float64) float64 {
	if deviceCompute <= 0 {
		return 0
	}
	return localWork / deviceCompute
}

// RemoteTime is formula (2): tˢ = Σ wⱼ / Iˢ + wt.
func RemoteTime(remoteWork, serverShare, wait float64) float64 {
	if serverShare <= 0 {
		return wait
	}
	return remoteWork/serverShare + wait
}

// LocalEnergy is formula (3): eᶜ = tᶜ · pᶜ.
func LocalEnergy(localTime, powerCompute float64) float64 {
	return localTime * powerCompute
}

// TransmissionEnergy is formula (4): eᵗ = Σ s(vⱼ, vₗ) · pᵗ / b over the cut.
func TransmissionEnergy(cutWeight, powerTransmit, bandwidth float64) float64 {
	if bandwidth <= 0 {
		return 0
	}
	return cutWeight * powerTransmit / bandwidth
}

// TransmissionTime is formula (5): tᵗ = Σ s(vⱼ, vₗ) / b over the cut.
func TransmissionTime(cutWeight, bandwidth float64) float64 {
	if bandwidth <= 0 {
		return 0
	}
	return cutWeight / bandwidth
}

// UserState summarises one user's placement: how much work runs locally,
// how much is offloaded, and the communication crossing the split.
type UserState struct {
	// LocalWork is Σ wⱼ over Vᶜ (functions kept on the device).
	LocalWork float64
	// RemoteWork is Σ wⱼ over Vˢ (functions offloaded to S).
	RemoteWork float64
	// CutWeight is the total edge weight between Vᶜ and Vˢ.
	CutWeight float64
	// DeviceCompute overrides Params.DeviceCompute when positive.
	DeviceCompute float64
	// Bandwidth overrides Params.Bandwidth when positive (a user on a
	// poor radio link). The paper assumes bᵢ = b "for the simplicity of
	// discussion"; heterogeneous links are a strict generalisation.
	Bandwidth float64
	// PowerTransmit overrides Params.PowerTransmit when positive.
	PowerTransmit float64
}

// UserCost is the per-user breakdown of formulas (1)–(5).
type UserCost struct {
	LocalTime          float64 // (1)
	RemoteTime         float64 // (2), includes WaitTime
	WaitTime           float64 // wtᵢ component of (2)
	TransmissionTime   float64 // (5)
	LocalEnergy        float64 // (3)
	TransmissionEnergy float64 // (4)
	ServerShare        float64 // Iˢᵢ under processor sharing
}

// Evaluation aggregates the double objective (6) over all users.
type Evaluation struct {
	PerUser []UserCost
	// LocalEnergy, TransmissionEnergy and Energy are Σeᶜ, Σeᵗ and E.
	LocalEnergy        float64
	TransmissionEnergy float64
	Energy             float64
	// LocalTime, RemoteTime, WaitTime, TransmissionTime and Time are the T
	// components: T = Σtᶜ + Σtˢ + Σtᵗ (tˢ already embeds the waiting time).
	LocalTime        float64
	RemoteTime       float64
	WaitTime         float64
	TransmissionTime float64
	Time             float64
	// Objective is E + T, the scalarisation Algorithm 2's greedy descends.
	Objective float64
	// ActiveUsers is k, the number of users with offloaded work.
	ActiveUsers int
}

// Evaluate applies formulas (1)–(6) to the given user states under
// processor sharing at the server.
func Evaluate(p Params, users []UserState) (*Evaluation, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	ev := &Evaluation{PerUser: make([]UserCost, len(users))}
	for _, u := range users {
		if u.RemoteWork > 0 {
			ev.ActiveUsers++
		}
	}
	share := p.ServerCapacity
	if ev.ActiveUsers > 0 {
		share = p.ServerCapacity / float64(ev.ActiveUsers)
	}
	for i, u := range users {
		dev := u.DeviceCompute
		if dev <= 0 {
			dev = p.DeviceCompute
		}
		bw := u.Bandwidth
		if bw <= 0 {
			bw = p.Bandwidth
		}
		pt := u.PowerTransmit
		if pt <= 0 {
			pt = p.PowerTransmit
		}
		var c UserCost
		c.LocalTime = LocalTime(u.LocalWork, dev)
		c.LocalEnergy = LocalEnergy(c.LocalTime, p.PowerCompute)
		if u.RemoteWork > 0 {
			c.ServerShare = share
			// Waiting time = slowdown versus owning the whole server.
			c.WaitTime = u.RemoteWork/share - u.RemoteWork/p.ServerCapacity
			c.RemoteTime = RemoteTime(u.RemoteWork, p.ServerCapacity, c.WaitTime)
		}
		c.TransmissionTime = TransmissionTime(u.CutWeight, bw)
		c.TransmissionEnergy = TransmissionEnergy(u.CutWeight, pt, bw)
		ev.PerUser[i] = c

		ev.LocalEnergy += c.LocalEnergy
		ev.TransmissionEnergy += c.TransmissionEnergy
		ev.LocalTime += c.LocalTime
		ev.RemoteTime += c.RemoteTime
		ev.WaitTime += c.WaitTime
		ev.TransmissionTime += c.TransmissionTime
	}
	ev.Energy = ev.LocalEnergy + ev.TransmissionEnergy
	ev.Time = ev.LocalTime + ev.RemoteTime + ev.TransmissionTime
	ev.Objective = ev.Energy + ev.Time
	return ev, nil
}

// Placement is one user's offloading decision over their function graph.
type Placement struct {
	// Graph is the user's function data-flow graph.
	Graph *graph.Graph
	// Remote marks the offloaded nodes; everything else runs locally.
	Remote map[graph.NodeID]bool
	// DeviceCompute optionally overrides the default device speed.
	DeviceCompute float64
	// Bandwidth optionally overrides the default uplink rate.
	Bandwidth float64
	// PowerTransmit optionally overrides the default radio power.
	PowerTransmit float64
}

// State derives the UserState (work sums and cut weight) from a placement.
// It reads pl.Graph, which must not be nil.
func (pl Placement) State() UserState {
	var st UserState
	st.DeviceCompute = pl.DeviceCompute
	st.Bandwidth = pl.Bandwidth
	st.PowerTransmit = pl.PowerTransmit
	for _, id := range pl.Graph.Nodes() {
		w, err := pl.Graph.NodeWeight(id)
		if err != nil {
			continue // unreachable: id came from Nodes()
		}
		if pl.Remote[id] {
			st.RemoteWork += w
		} else {
			st.LocalWork += w
		}
	}
	st.CutWeight = pl.Graph.CutWeight(pl.Remote)
	return st
}

// EvaluatePlacements derives every user's state and evaluates the system.
func EvaluatePlacements(p Params, placements []Placement) (*Evaluation, error) {
	users := make([]UserState, len(placements))
	for i, pl := range placements {
		users[i] = pl.State()
	}
	return Evaluate(p, users)
}
