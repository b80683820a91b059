package transport

import (
	"fmt"

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

	// Payload-plane accounting, per consensus group (indexed by GroupID;
	// always sized cfg.Groups, entries nil when metrics are off, which the
	// nil-safe instruments absorb). hits/misses are resolve-before-weigh
	// outcomes; bytesSaved is the voting-plane traffic the digest avoided;
	// forged counts content-address mismatches (announce or fetch reply);
	// abandoned counts digests written off after exhausting their fetch
	// budget — each one is a strike against whoever voted it.
	payloadHits         []*obs.Counter
	payloadMisses       []*obs.Counter
	payloadBytesSaved   []*obs.Counter
	payloadFetches      []*obs.Counter
	payloadFetchFails   []*obs.Counter
	payloadFetchServed  []*obs.Counter
	payloadFetchUnknown []*obs.Counter
	payloadForged       []*obs.Counter
	payloadEvictions    []*obs.Counter
	payloadAbandoned    []*obs.Counter
}

// frameFamilies names the known wire frame families for metric naming.
var frameFamilies = map[uint8]string{
	wire.Version:        "envelope",
	wire.SnapVersion:    "snap",
	wire.HelloVersion:   "hello",
	wire.SessionVersion: "session",
	wire.PayloadVersion: "payload",
}

// resolveMetrics builds the instrument set from reg (nil reg → disabled
// zero set: every instrument stays nil). groups sizes the per-group
// payload-plane slices, which exist even with metrics off so update sites
// can index unconditionally.
func resolveMetrics(reg *obs.Registry, groups int) metrics {
	var m metrics
	m.payloadHits = make([]*obs.Counter, groups)
	m.payloadMisses = make([]*obs.Counter, groups)
	m.payloadBytesSaved = make([]*obs.Counter, groups)
	m.payloadFetches = make([]*obs.Counter, groups)
	m.payloadFetchFails = make([]*obs.Counter, groups)
	m.payloadFetchServed = make([]*obs.Counter, groups)
	m.payloadFetchUnknown = make([]*obs.Counter, groups)
	m.payloadForged = make([]*obs.Counter, groups)
	m.payloadEvictions = make([]*obs.Counter, groups)
	m.payloadAbandoned = make([]*obs.Counter, groups)
	if reg == nil {
		return m
	}
	for g := 0; g < groups; g++ {
		prefix := fmt.Sprintf("g%d.transport.", g)
		m.payloadHits[g] = reg.Counter(prefix + "payload_hits")
		m.payloadMisses[g] = reg.Counter(prefix + "payload_misses")
		m.payloadBytesSaved[g] = reg.Counter(prefix + "payload_bytes_saved")
		m.payloadFetches[g] = reg.Counter(prefix + "payload_fetches")
		m.payloadFetchFails[g] = reg.Counter(prefix + "payload_fetch_fails")
		m.payloadFetchServed[g] = reg.Counter(prefix + "payload_fetch_served")
		m.payloadFetchUnknown[g] = reg.Counter(prefix + "payload_fetch_unknown")
		m.payloadForged[g] = reg.Counter(prefix + "payload_forged")
		m.payloadEvictions[g] = reg.Counter(prefix + "payload_evictions")
		m.payloadAbandoned[g] = reg.Counter(prefix + "payload_abandoned")
	}
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
