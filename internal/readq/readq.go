// Package readq implements the client half of the Byzantine read flavor:
// parsing stamped READ replies and assembling b+1 matching certificates.
//
// The server-side read-index (READ, internal/node) is the benign flavor —
// one replica, linearizable under benign faults, but a Byzantine replica
// could still forge the reply. Mirroring the paper's parametrization by
// fault class, the Byzantine flavor fans the read to several replicas and
// accepts a value only when b+1 of them agree on it: with at most b
// Byzantine members, at least one of any b+1 matching replies is honest,
// so a fabricated value can never certify. Among certified candidates the
// one stamped with the highest applied instance wins — value-at-or-above-
// instance — so lagging honest replicas cannot roll a read back either.
// It is the same quorum shape the transport already uses to fetch verified
// decisions and snapshots from peers.
package readq

import (
	"fmt"
	"strconv"
	"strings"

	"genconsensus/internal/obs"
)

// Result is one replica's stamped read reply.
type Result struct {
	Instance uint64 // applied instance the value was served at
	Value    string
	Found    bool
}

// Parse decodes one READ reply line:
//
//	VAL <group> <instance> <value>   — key present, value stamped
//	NF <group> <instance>            — key absent as of the stamp
//
// group is a reserved field every node answers as 0; any other value is
// refused. Anything else (including ERR lines) is an error: the replica's
// reply simply does not join the certificate.
func Parse(line string) (Result, error) {
	fields := strings.Fields(line)
	if len(fields) < 3 || (fields[0] != "VAL" && fields[0] != "NF") {
		return Result{}, fmt.Errorf("readq: not a read reply: %q", line)
	}
	if group, err := strconv.ParseUint(fields[1], 10, 16); err != nil || group != 0 {
		return Result{}, fmt.Errorf("readq: bad group in %q", line)
	}
	instance, err := strconv.ParseUint(fields[2], 10, 64)
	if err != nil {
		return Result{}, fmt.Errorf("readq: bad instance in %q: %v", line, err)
	}
	res := Result{Instance: instance}
	if fields[0] == "VAL" {
		if len(fields) != 4 {
			return Result{}, fmt.Errorf("readq: malformed VAL reply: %q", line)
		}
		res.Value = fields[3]
		res.Found = true
	} else if len(fields) != 3 {
		return Result{}, fmt.Errorf("readq: malformed NF reply: %q", line)
	}
	return res, nil
}

// Certify assembles a read certificate from the replies of one fanned-out
// read: a value (or absence) certifies when at least quorum replicas —
// b+1 for a b-Byzantine deployment — agree on it. The
// certified result carries the highest instance stamp among its matching
// replies, and when several candidates certify (possible only with
// quorum ≤ replies/2), the one with the highest stamp wins. Replies that
// disagree with the certified result are counted on mismatch (nil is
// fine): a nonzero count means some replica — Byzantine or badly lagging —
// answered with something the certificate rejected.
//
// ok is false when no candidate reaches quorum; the caller retries,
// widens the fan-out, or falls back to a stale read, but must not trust
// any single reply.
func Certify(results []Result, quorum int, mismatch *obs.Counter) (Result, bool) {
	if quorum < 1 {
		quorum = 1
	}
	type key struct {
		found bool
		value string
	}
	count := make(map[key]int)
	high := make(map[key]uint64)
	for _, r := range results {
		k := key{found: r.Found, value: r.Value}
		count[k]++
		if r.Instance > high[k] {
			high[k] = r.Instance
		}
	}
	var best Result
	supported := 0
	ok := false
	for k, c := range count {
		if c < quorum {
			continue
		}
		cand := Result{Found: k.found, Value: k.value, Instance: high[k]}
		if !ok || cand.Instance > best.Instance ||
			(cand.Instance == best.Instance && c > supported) {
			best, supported, ok = cand, c, true
		}
	}
	if ok && mismatch != nil && len(results) > supported {
		mismatch.Add(uint64(len(results) - supported))
	}
	return best, ok
}
