package control

import (
	"fmt"
	"sort"

	"iqpaths/internal/overlay"
)

// EventKind enumerates the membership and link events a control schedule
// can apply to the overlay.
type EventKind uint8

const (
	// NodeJoin marks a (registered, currently down) node up and attaches
	// it to the overlay with duplex links to Event.Attach.
	NodeJoin EventKind = iota
	// NodeLeave removes a node gracefully: it announces its departure, so
	// former neighbors witness the change immediately.
	NodeLeave
	// NodeFail removes a node abruptly: former neighbors only witness the
	// change after the controller's failure-detection delay.
	NodeFail
	// LinkAdd adds a duplex logical link Event.From ↔ Event.To.
	LinkAdd
	// LinkRemove deletes the duplex logical link Event.From ↔ Event.To.
	LinkRemove
)

// String names the kind for telemetry labels and trace events.
func (k EventKind) String() string {
	switch k {
	case NodeJoin:
		return "join"
	case NodeLeave:
		return "leave"
	case NodeFail:
		return "fail"
	case LinkAdd:
		return "link_add"
	case LinkRemove:
		return "link_remove"
	default:
		return fmt.Sprintf("kind(%d)", k)
	}
}

// Event is one scripted membership change, applied at virtual tick AtTick.
// Node IDs refer to nodes registered in the graph up front — membership
// toggles their state, it does not mint identities (IDs stay stable
// indices into routing and telemetry state across churn).
type Event struct {
	AtTick int64
	Kind   EventKind
	// Node is the joining/leaving/failing node (NodeJoin/NodeLeave/NodeFail).
	Node overlay.NodeID
	// Attach lists the nodes a joining node establishes duplex links to.
	Attach []overlay.NodeID
	// From, To name the endpoints of a LinkAdd/LinkRemove duplex link.
	From, To overlay.NodeID
}

// Schedule is a churn script: a list of events, not necessarily ordered.
// Schedules compose by concatenation (Compose); the controller sorts them
// stably by tick, so same-tick events apply in script order. Like
// faults.Schedule it is pure data — a fixed schedule plus a fixed seed is
// bit-for-bit reproducible.
type Schedule []Event

// FailRecover scripts node failing at fromTick and rejoining at toTick with
// duplex links to attach (typically its former neighbors).
func FailRecover(node overlay.NodeID, fromTick, toTick int64, attach ...overlay.NodeID) Schedule {
	return Schedule{
		{AtTick: fromTick, Kind: NodeFail, Node: node},
		{AtTick: toTick, Kind: NodeJoin, Node: node, Attach: attach},
	}
}

// sorted returns a stable tick-ordered copy of the schedule.
func (s Schedule) sorted() []Event {
	out := append([]Event(nil), s...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].AtTick < out[j].AtTick })
	return out
}

// DataPlane lets the controller mirror overlay membership onto the
// emulated (or real) network: when the logical link a → b goes down or
// comes up, the corresponding transport hop follows. Implementations map
// node pairs to their concrete links; pairs without a backing link are
// ignored.
type DataPlane interface {
	SetLinkUp(a, b overlay.NodeID, up bool)
}

// DataPlaneFunc adapts a function to the DataPlane interface.
type DataPlaneFunc func(a, b overlay.NodeID, up bool)

// SetLinkUp calls f.
func (f DataPlaneFunc) SetLinkUp(a, b overlay.NodeID, up bool) { f(a, b, up) }
