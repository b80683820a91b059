package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"genconsensus/internal/auth"
	"genconsensus/internal/core"
	"genconsensus/internal/flv"
	"genconsensus/internal/kv"
	"genconsensus/internal/model"
	"genconsensus/internal/readq"
	"genconsensus/internal/selector"
	"genconsensus/internal/smr"
	"genconsensus/internal/snapshot"
	"genconsensus/internal/storage"
	"genconsensus/internal/wire"
)

// The layer replay trace. The live run cannot say where inside the program
// a committed operation's time goes — the program records no spans yet — so
// the harness takes the operations the saturation phase actually issued and
// walks them, single-threaded, through each layer's exported functions in
// the order the program calls them, with a span around every call. One
// replica's work per operation is replayed, plus one in-memory consensus
// phase for n = 4 per 64-command instance. A layer's figure is its spans'
// self time per replayed operation. What the replay leaves out is everything
// between the layers: queueing, locks, timers, the network.

const (
	replayOps   = 2048 // operations replayed: 32 full instances of a write-only stream
	replayBatch = 64   // = the fixed shape's MaxBatch
)

// tracedStore wraps the kv store the replay replica applies to, so that
// kv.apply and kv.snapshot_state become child spans of the smr calls that
// cause them.
type tracedStore struct {
	*kv.Store
	t *tracer
}

func (s tracedStore) Apply(cmd model.Value) string {
	s.t.begin("kv.apply", 0)
	defer s.t.end()
	return s.Store.Apply(cmd)
}

func (s tracedStore) SnapshotState() []byte {
	s.t.begin("kv.snapshot_state", 0)
	defer s.t.end()
	return s.Store.SnapshotState()
}

// tracedBackend does the same for the durable backend.
type tracedBackend struct {
	storage.Backend
	t *tracer
}

func (b tracedBackend) AppendWAL(instance uint64, value model.Value) error {
	b.t.begin("storage.wal_append", int64(instance))
	defer b.t.end()
	return b.Backend.AppendWAL(instance, value)
}

func (b tracedBackend) SaveSnapshot(snap *snapshot.Snapshot) error {
	b.t.begin("storage.save_snapshot", int64(snap.LastInstance))
	defer b.t.end()
	return b.Backend.SaveSnapshot(snap)
}

type tracedFLV struct {
	flv.Func
	t *tracer
}

func (f tracedFLV) Eval(mu model.Received, phase model.Phase) flv.Result {
	f.t.begin("flv.eval", 0)
	defer f.t.end()
	return f.Func.Eval(mu, phase)
}

type tracedChooser struct {
	core.Chooser
	t *tracer
}

func (c tracedChooser) Choose(mu model.Received) (model.Value, bool) {
	c.t.begin("smr.choose", 0)
	defer c.t.end()
	return c.Chooser.Choose(mu)
}

// replayLayers replays ops (in the order given) and returns the spans.
func replayLayers(w workload, ops []*opRec, outDir string) ([]span, error) {
	t := newTracer()
	store := kv.NewStore()
	if w.preload {
		preload(store, w.keys)
	}
	keyring := auth.NewClientKeyring(authSeed, 16)
	authCtx := smr.NewAuthContext(keyring, 0)
	replica := smr.NewReplica(0, tracedStore{store, t})
	replica.SetMaxBatch(replayBatch)
	replica.SetCommandAuth(authCtx)
	store.EnableClientAuth(authCtx, 0)
	if w.durable {
		dir := filepath.Join(outDir, fmt.Sprintf("replay-%d", os.Getpid()))
		defer os.RemoveAll(dir)
		disk, err := storage.OpenDisk(storage.DiskConfig{Dir: dir, Fsync: true})
		if err != nil {
			return nil, fmt.Errorf("bench: replay backend: %w", err)
		}
		defer disk.Close()
		replica.SetBackend(tracedBackend{disk, t}, nil)
	}
	mgr, err := smr.NewSnapshotManager(replica, smr.SnapshotConfig{Interval: 4, KeepApplied: 4096})
	if err != nil {
		return nil, fmt.Errorf("bench: replay: %w", err)
	}
	commits := smr.NewCommitQueue(replica, 1, func(instance uint64, _ model.Value, _ []string) {
		if instance%4 != 0 {
			return
		}
		t.begin("smr.checkpoint", int64(instance))
		mgr.Checkpoint(instance)
		t.end()
	})
	params := core.Params{
		N: clusterN, B: clusterB, F: 0, TD: 2*clusterB + 1,
		Flag: model.FlagPhase, Selector: selector.NewAll(clusterN), UseHistory: true,
		FLV:     tracedFLV{flv.NewPBFT(clusterN, clusterB), t},
		Chooser: tracedChooser{smr.CommandChooser{Auth: authCtx}, t},
	}

	// Per-client session state, both ends of it.
	type session struct {
		signer *auth.ClientSigner
		tagger *auth.SessionMACer // client end
		macer  *auth.SessionMACer // replica end
	}
	sessions := make([]session, numClients)
	for c := range sessions {
		id := uint32(c + 1)
		key, _ := keyring.Key(id)
		skey := auth.ClientSessionKey(key, id, []byte("replay-client-nonce"), []byte("replay-server-nonce"))
		sessions[c] = session{auth.NewClientSigner(authSeed, id), auth.NewSessionMACer(skey), auth.NewSessionMACer(skey)}
	}
	linkKey := auth.PairKey(authSeed, 0, 1)
	incremental := &snapshot.IncrementalEncoder{FullEvery: 4}

	instance := uint64(0)
	queued := 0
	var frame, envBuf []byte
	runInstance := func() error {
		instance++
		t.begin("instance", int64(instance))
		defer t.end()
		proposal := commits.Claim(instance, 0)
		cmds := smr.Commands(proposal)

		t.begin("smr.batch_codec", int64(instance))
		enc, err := smr.EncodeBatch(cmds)
		if err == nil {
			_, err = smr.DecodeBatch(enc)
		}
		t.end()
		if err != nil {
			return fmt.Errorf("bench: replay batch codec: %w", err)
		}

		// One consensus phase in memory. As in the program, the replicas'
		// proposals differ (each claimed its own slice of its own queue): here
		// process p proposes the batch short of its last p commands, so FLV
		// finds nothing locked and the chooser picks the largest.
		proposals := make([]model.Value, clusterN)
		for p := range proposals {
			proposals[p] = proposal
			if short := len(cmds) - p; p > 0 && short > 0 {
				if proposals[p], err = smr.EncodeBatch(cmds[:short]); err != nil {
					return fmt.Errorf("bench: replay: %w", err)
				}
			}
		}
		t.begin("core.phase", int64(instance))
		procs := make([]*core.Process, clusterN)
		for p := range procs {
			if procs[p], err = core.NewProcess(model.PID(p), proposals[p], params); err != nil {
				t.end()
				return fmt.Errorf("bench: replay: %w", err)
			}
		}
		var sent []wire.Envelope // what one process sent, for the codec spans below
		decided := model.NoValue
		for r := model.Round(1); r <= 9 && decided == model.NoValue; r++ {
			inbox := make([]model.Received, clusterN)
			for p := range inbox {
				inbox[p] = make(model.Received, clusterN)
			}
			for p, proc := range procs {
				for dest, msg := range proc.Send(r) {
					inbox[dest][model.PID(p)] = msg
					if p == 0 && dest == 1 {
						sent = append(sent, wire.Envelope{Instance: instance, Round: r, Sender: 0, Msg: msg})
					}
				}
			}
			for p, proc := range procs {
				proc.Transition(r, inbox[p])
			}
			if v, ok := procs[0].Decided(); ok {
				decided = v
			}
		}
		t.end()
		if decided != proposal {
			return fmt.Errorf("bench: replay instance %d decided %d bytes, want the %d-byte full batch", instance, len(decided), len(proposal))
		}

		// The wire work of one replica for those rounds: each message is
		// encoded once and framed for n-1 peers, and n-1 peers' frames are
		// split, checked and decoded.
		for _, env := range sent {
			t.begin("wire.envelope_codec", int64(instance))
			envBuf = wire.AppendEnvelope(envBuf[:0], env)
			t.end()
			for peer := 1; peer < clusterN; peer++ {
				t.begin("wire.session_frame", int64(instance))
				frame = wire.AppendSessionFrame(frame[:0], uint64(env.Round), envBuf, func(seq uint64, inner []byte) (tag [wire.SessionTagSize]byte) {
					t.begin("auth.link_mac", int64(instance))
					copy(tag[:], auth.SessionMAC(nil, linkKey, seq, inner))
					t.end()
					return tag
				})
				seq, tag, inner, err := wire.SplitSessionFrame(frame)
				if err == nil {
					t.begin("auth.link_mac", int64(instance))
					if !auth.CheckSessionMAC(linkKey, seq, inner, tag) {
						err = fmt.Errorf("link tag rejected")
					}
					t.end()
				}
				t.end()
				if err != nil {
					return fmt.Errorf("bench: replay session frame: %w", err)
				}
				t.begin("wire.envelope_codec", int64(instance))
				_, err = wire.Decode(inner)
				t.end()
				if err != nil {
					return fmt.Errorf("bench: replay envelope decode: %w", err)
				}
			}
		}

		t.begin("smr.commitqueue_deliver", int64(instance))
		commits.Deliver(instance, decided)
		t.end()
		queued = 0

		if instance%4 == 0 {
			snap, _, ok := mgr.Latest()
			if !ok {
				return fmt.Errorf("bench: replay: no checkpoint at instance %d", instance)
			}
			t.begin("snapshot.digest", int64(instance))
			snapshot.Digest(snap)
			t.end()
			t.begin("snapshot.encode", int64(instance))
			snapshot.Encode(snap)
			t.end()
			t.begin("snapshot.delta_encode", int64(instance))
			incremental.Encode(snap)
			t.end()
		}
		return nil
	}

	seqs := make([]uint64, numClients) // the replay numbers its writes afresh
	for i, op := range ops {
		id := int64(i)
		key := keyName(op.spec.key)
		t.begin("op", id)
		if op.spec.read {
			t.begin("kv.get", id)
			res := store.GetMany([]string{key})
			t.end()
			replies := make([]readq.Result, clusterN)
			for r := range replies {
				replies[r] = readq.Result{Instance: instance, Value: res[0].Value, Found: res[0].Found}
			}
			t.begin("readq.certify", id)
			_, ok := readq.Certify(replies, quorum, nil)
			t.end()
			t.end()
			if !ok {
				return nil, fmt.Errorf("bench: replay: identical replies did not certify")
			}
			continue
		}
		s := sessions[op.client]
		client := uint32(op.client + 1)
		seqs[op.client]++
		seq := seqs[op.client]
		payload := []byte(kv.AuthPayload(client, seq, "SET", key, valueFor(op.spec.key, op.spec.version)))
		tag := s.tagger.Append(nil, seq, payload)
		mac := s.signer.Sign(seq, payload)

		t.begin("auth.session_check", id)
		ok := s.macer.Check(seq, payload, tag)
		t.end()
		t.begin("wire.command_codec", id)
		enc, err := wire.AppendCommandBytes(nil, client, seq, payload, mac)
		if err == nil {
			_, _, _, _, err = wire.DecodeCommandParts(string(enc))
		}
		t.end()
		t.begin("auth.command_verify", id)
		ok = ok && keyring.VerifyCommand(client, seq, payload, mac)
		t.end()
		t.end()
		if err != nil || !ok {
			return nil, fmt.Errorf("bench: replay: op %d failed ingress (err %v, authentic %v)", i, err, ok)
		}
		if !replica.Submit(model.Value(enc)) {
			return nil, fmt.Errorf("bench: replay: op %d refused by Submit", i)
		}
		if queued++; queued == replayBatch {
			if err := runInstance(); err != nil {
				return nil, err
			}
		}
	}
	if queued > 0 {
		if err := runInstance(); err != nil {
			return nil, err
		}
	}
	return t.spans, nil
}

// replayInput picks what the replay walks through: the first replayOps
// operations of the saturation phase that completed, in the order they
// were sent.
func replayInput(all []*opRec) []*opRec {
	var ops []*opRec
	for _, op := range all {
		if op.phase == phaseSat && (op.quorum.Load() != 0 || op.done != 0) {
			ops = append(ops, op)
		}
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].sent < ops[j].sent })
	if len(ops) > replayOps {
		ops = ops[:replayOps]
	}
	return ops
}

// spanOverheadNS measures what an empty span costs: two clock readings and
// a slice append, paid by every span above.
func spanOverheadNS() float64 {
	t := newTracer()
	const n = 20000
	t.begin("calibrate", 0)
	for i := 0; i < n; i++ {
		t.begin("empty", 0)
		t.end()
	}
	t.end()
	return float64(t.spans[0].End-t.spans[0].Start) / n
}
