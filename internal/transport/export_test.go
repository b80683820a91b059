package transport

import "genconsensus/internal/model"

// Hooks for the tests that run whole replica servers (internal/node) from
// package transport_test. Each takes effect for nodes that listen
// afterwards; call restore once those nodes have stopped.

// SetPayloadSenderCap forces the per-sender payload cap to bytes (clamped
// to its minimum, one maximum-size payload).
func SetPayloadSenderCap(bytes int) (restore func()) {
	old := payloadSenderCapOverride
	payloadSenderCapOverride = bytes
	return func() { payloadSenderCapOverride = old }
}

// SetPayloadAnnounceDrop suppresses every announce drop reports true for.
func SetPayloadAnnounceDrop(drop func(from, to model.PID) bool) (restore func()) {
	old := payloadAnnounceDrop
	payloadAnnounceDrop = drop
	return func() { payloadAnnounceDrop = old }
}

// SetEnvelopeDrop suppresses every round envelope drop reports true for.
func SetEnvelopeDrop(drop func(from, to model.PID, instance uint64, r model.Round) bool) (restore func()) {
	old := envelopeDrop
	envelopeDrop = drop
	return func() { envelopeDrop = old }
}
