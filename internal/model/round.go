package model

// The closed-round computation model of §2.1: in each round r a process
// sends messages according to a sending function S_p^r and, at the end of
// the round, computes a new state with a transition function T_p^r applied
// to the vector of messages received in that same round. Proc fixes the
// contract between processes and runtimes; the in-memory simulator
// (internal/sim) and the TCP runtime (internal/transport) both drive
// implementations of it.

// Proc is a process in the round  Implementations must be pure state
// machines: no goroutines, no clocks; all nondeterminism (coin flips) is
// injected via seeded sources at construction.
type Proc interface {
	// ID returns the process identifier.
	ID() PID
	// Send returns the messages to send in round r, keyed by destination.
	// A nil or empty map means the process sends nothing. Honest
	// processes send the same content to every destination; Byzantine
	// implementations may equivocate.
	Send(r Round) map[PID]Message
	// Transition consumes the vector of messages received in round r
	// (closed rounds: only round-r messages appear) and updates state.
	Transition(r Round, mu Received)
	// Decided reports the decision value once the process has decided.
	Decided() (Value, bool)
}

// Broadcast builds a Send result carrying the same message to every
// destination in dests.
func Broadcast(msg Message, dests []PID) map[PID]Message {
	out := make(map[PID]Message, len(dests))
	for _, d := range dests {
		out[d] = msg
	}
	return out
}
