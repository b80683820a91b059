package transport

import (
	"genconsensus/internal/obs"
	"genconsensus/internal/wire"
)

// metrics is a node's resolved transport instrument set. All instruments
// are resolved once at Listen; the zero value (nil instruments, the
// metrics-off mode) makes every update a predicted-branch no-op, so the
// frame hot path carries no conditional registry lookups.
//
// Inbound frames are attributed to their wire family (the first payload
// byte): handshakes, session frames (which carry consensus envelopes and
// fetch requests alike), payload announces; anything else on the wire is
// refused, but still counted under its family.
// The per-family arrays are fully populated — unknown families share one
// "other" instrument — so the read loop indexes by the version byte
// without a bounds or nil check beyond the nil-receiver branch.
type metrics struct {
	framesIn [256]*obs.Counter
	bytesIn  [256]*obs.Counter

	framesOut     *obs.Counter
	bytesOut      *obs.Counter
	framesDropped *obs.Counter // outbound queue full: frame dropped, link kept

	// writeBatch observes the frames coalesced into each vectored write.
	writeBatch *obs.Histogram

	// Handshake outcomes, split by direction.
	handshakeAccept *obs.Counter
	handshakeReject *obs.Counter
	dialOK          *obs.Counter
	dialFail        *obs.Counter

	// Decision-ring outcomes when serving catch-up requests.
	ringHits   *obs.Counter
	ringMisses *obs.Counter

	// Payload-plane accounting. hits/misses are resolve-before-weigh
	// outcomes; bytesSaved is the voting-plane traffic the digest avoided;
	// forged counts content-address mismatches (announce or fetch reply);
	// abandoned counts digests written off after exhausting their fetch
	// budget — each one is a strike against whoever voted it.
	payloadHits         *obs.Counter
	payloadMisses       *obs.Counter
	payloadBytesSaved   *obs.Counter
	payloadFetches      *obs.Counter
	payloadFetchFails   *obs.Counter
	payloadFetchServed  *obs.Counter
	payloadFetchUnknown *obs.Counter
	payloadForged       *obs.Counter
	payloadEvictions    *obs.Counter
	payloadAbandoned    *obs.Counter
}

// payloadMetricPrefix names the payload-plane instruments. The "g0." is
// kept from when a node ran several consensus groups: bench/ and the smoke
// script read these names.
const payloadMetricPrefix = "g0.transport."

// frameFamilies names the known wire frame families for metric naming.
var frameFamilies = map[uint8]string{
	wire.Version:        "envelope",
	wire.SnapVersion:    "snap",
	wire.HelloVersion:   "hello",
	wire.SessionVersion: "session",
	wire.PayloadVersion: "payload",
}

// resolveMetrics builds the instrument set from reg (nil reg → disabled
// zero set: every instrument stays nil).
func resolveMetrics(reg *obs.Registry) metrics {
	var m metrics
	if reg == nil {
		return m
	}
	m.payloadHits = reg.Counter(payloadMetricPrefix + "payload_hits")
	m.payloadMisses = reg.Counter(payloadMetricPrefix + "payload_misses")
	m.payloadBytesSaved = reg.Counter(payloadMetricPrefix + "payload_bytes_saved")
	m.payloadFetches = reg.Counter(payloadMetricPrefix + "payload_fetches")
	m.payloadFetchFails = reg.Counter(payloadMetricPrefix + "payload_fetch_fails")
	m.payloadFetchServed = reg.Counter(payloadMetricPrefix + "payload_fetch_served")
	m.payloadFetchUnknown = reg.Counter(payloadMetricPrefix + "payload_fetch_unknown")
	m.payloadForged = reg.Counter(payloadMetricPrefix + "payload_forged")
	m.payloadEvictions = reg.Counter(payloadMetricPrefix + "payload_evictions")
	m.payloadAbandoned = reg.Counter(payloadMetricPrefix + "payload_abandoned")
	otherF := reg.Counter("transport.frames_in.other")
	otherB := reg.Counter("transport.bytes_in.other")
	for i := range m.framesIn {
		m.framesIn[i] = otherF
		m.bytesIn[i] = otherB
	}
	for v, name := range frameFamilies {
		m.framesIn[v] = reg.Counter("transport.frames_in." + name)
		m.bytesIn[v] = reg.Counter("transport.bytes_in." + name)
	}
	m.framesOut = reg.Counter("transport.frames_out")
	m.bytesOut = reg.Counter("transport.bytes_out")
	m.framesDropped = reg.Counter("transport.frames_dropped")
	m.writeBatch = reg.Histogram("transport.write_batch_frames")
	m.handshakeAccept = reg.Counter("transport.handshake.accepted")
	m.handshakeReject = reg.Counter("transport.handshake.rejected")
	m.dialOK = reg.Counter("transport.handshake.dial_ok")
	m.dialFail = reg.Counter("transport.handshake.dial_fail")
	m.ringHits = reg.Counter("transport.decision_ring.hits")
	m.ringMisses = reg.Counter("transport.decision_ring.misses")
	return m
}
