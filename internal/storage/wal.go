package storage

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"

	"genconsensus/internal/model"
)

// The WAL is one append-only file of CRC-framed records:
//
//	file   := header record*
//	header := "GCWAL1\n\x00"                     (8 bytes)
//	record := bodyLen(u32) crc32(u32) body       (crc32 = IEEE over body)
//	body   := instance(u64) value
//
// A record is trusted only if its frame is complete AND its CRC matches: a
// torn final write (power loss mid-append) fails one of the two and marks
// the end of the usable log. Open truncates the file back to the last good
// record, so the tear never propagates — everything before it replays,
// everything after it is gone, and the next append continues cleanly.
// Truncation rewrites the file as the header plus the surviving records and
// renames it into place; an in-memory index of record offsets finds them.
const (
	walHeader = "GCWAL1\n\x00"
	walName   = "wal.log"

	// maxWALBody bounds one record's body (16 MiB): decided values are at
	// most a batch (32 KiB today), so anything bigger is corruption — a
	// garbage length prefix must not drive a giant allocation.
	maxWALBody = 16 << 20
)

// wal is the disk write-ahead decision log. Callers serialize access (the
// Disk backend holds its mutex across every call).
type wal struct {
	path  string
	f     *os.File
	fsync bool
	batch int         // fsync every batch appends (1 = every append)
	m     diskMetrics // set by OpenDisk; zero value = disabled

	unsynced int
	// have maps every retained instance to the offset of its record: the
	// append dedup filter, and the index truncate reads the surviving
	// records through, so a rewrite never scans the log.
	have map[uint64]int64
	// size is the offset of the end of the last good record: appends that
	// fail partway are rolled back to it so a torn frame can never orphan
	// the appends after it.
	size int64
	// broken latches a failed rollback: the file may end in a torn frame
	// that would silently swallow later appends, so every further append
	// must error rather than claim durability.
	broken bool
	// tornBytes reports how many trailing bytes the last open discarded
	// (observability for recovery logs and tests).
	tornBytes int64
}

// encodeRecord frames one record: bodyLen, crc32 over the body, then the
// body (instance + value).
func encodeRecord(instance uint64, value model.Value) []byte {
	body := make([]byte, 8, 8+len(value))
	binary.BigEndian.PutUint64(body, instance)
	body = append(body, value...)
	rec := make([]byte, 8, 8+len(body))
	binary.BigEndian.PutUint32(rec[0:4], uint32(len(body)))
	binary.BigEndian.PutUint32(rec[4:8], crc32.ChecksumIEEE(body))
	return append(rec, body...)
}

// openWAL opens (or creates) the WAL in dir, scanning it to rebuild the
// offset index and truncating any torn tail.
func openWAL(dir string, fsync bool, batch int) (*wal, error) {
	if batch < 1 {
		batch = 1
	}
	w := &wal{
		path:  filepath.Join(dir, walName),
		fsync: fsync,
		batch: batch,
		have:  make(map[uint64]int64),
	}
	f, err := os.OpenFile(w.path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: opening wal: %w", err)
	}
	w.f = f
	if err := w.recover(); err != nil {
		_ = f.Close()
		return nil, err
	}
	return w, nil
}

// recover validates the header, indexes every record and truncates the
// file after the last good record. A duplicate instance keeps its first
// record's offset, the record replay consumers keep.
func (w *wal) recover() error {
	info, err := w.f.Stat()
	if err != nil {
		return fmt.Errorf("storage: wal stat: %w", err)
	}
	size := info.Size()
	if size < int64(len(walHeader)) {
		// Empty or torn header: nothing recorded yet, start fresh.
		w.tornBytes = size
		return w.reset()
	}
	header := make([]byte, len(walHeader))
	if _, err := w.f.ReadAt(header, 0); err != nil {
		return fmt.Errorf("storage: wal header: %w", err)
	}
	if string(header) != walHeader {
		return fmt.Errorf("storage: %s is not a WAL (bad header)", w.path)
	}
	good, err := scanRecords(w.f, size, func(off int64, instance uint64, _ model.Value) error {
		if _, dup := w.have[instance]; !dup {
			w.have[instance] = off
		}
		return nil
	})
	if err != nil {
		return err
	}
	if good < size {
		w.tornBytes = size - good
		if err := w.f.Truncate(good); err != nil {
			return fmt.Errorf("storage: truncating torn wal tail: %w", err)
		}
		if err := w.syncFile(); err != nil {
			return err
		}
	}
	w.size = good
	if _, err := w.f.Seek(good, io.SeekStart); err != nil {
		return fmt.Errorf("storage: wal seek: %w", err)
	}
	return nil
}

// reset truncates the WAL to a fresh header.
func (w *wal) reset() error {
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("storage: resetting wal: %w", err)
	}
	if _, err := w.f.WriteAt([]byte(walHeader), 0); err != nil {
		return fmt.Errorf("storage: writing wal header: %w", err)
	}
	w.size = int64(len(walHeader))
	if _, err := w.f.Seek(w.size, io.SeekStart); err != nil {
		return fmt.Errorf("storage: wal seek: %w", err)
	}
	return w.syncFile()
}

// scanRecords walks the record stream in f up to limit, calling fn for
// every CRC-clean record with the offset its frame starts at, and returns
// the offset just past the last good record. Corruption (bad length, CRC
// mismatch, short read) ends the scan without error: the tear boundary is
// data, not failure.
func scanRecords(f *os.File, limit int64, fn func(off int64, instance uint64, value model.Value) error) (int64, error) {
	r := io.NewSectionReader(f, 0, limit)
	if _, err := r.Seek(int64(len(walHeader)), io.SeekStart); err != nil {
		return 0, err
	}
	good := int64(len(walHeader))
	frame := make([]byte, 8)
	var body []byte
	for {
		if _, err := io.ReadFull(r, frame); err != nil {
			return good, nil // clean EOF or torn frame: stop here
		}
		bodyLen := binary.BigEndian.Uint32(frame[0:4])
		sum := binary.BigEndian.Uint32(frame[4:8])
		if bodyLen < 8 || bodyLen > maxWALBody {
			return good, nil // garbage length: torn or corrupt
		}
		if cap(body) < int(bodyLen) {
			body = make([]byte, bodyLen)
		}
		body = body[:bodyLen]
		if _, err := io.ReadFull(r, body); err != nil {
			return good, nil // short read: torn final record
		}
		if crc32.ChecksumIEEE(body) != sum {
			return good, nil // bit rot or tear inside the record
		}
		instance := binary.BigEndian.Uint64(body[0:8])
		if err := fn(good, instance, model.Value(body[8:])); err != nil {
			return good, err
		}
		good += int64(8 + len(body))
	}
}

// replay visits every record of the log in append order.
func (w *wal) replay(fn func(instance uint64, value model.Value) error) error {
	_, err := scanRecords(w.f, w.size, func(_ int64, instance uint64, value model.Value) error {
		return fn(instance, value)
	})
	return err
}

// append writes one record (write-ahead of the apply), honouring the fsync
// batch. Duplicate instances are dropped: decisions are final. A failed
// write is rolled back to the last good record so a torn frame cannot sit
// mid-file and silently orphan every later append (scan stops at the first
// bad frame); if even the rollback fails, the log latches broken and every
// further append errors instead of claiming durability it cannot deliver.
func (w *wal) append(instance uint64, value model.Value) error {
	if w.broken {
		return fmt.Errorf("storage: wal %s: unrecovered partial write, appends disabled", w.path)
	}
	if _, dup := w.have[instance]; dup {
		return nil
	}
	rec := encodeRecord(instance, value)
	if _, err := w.f.Write(rec); err != nil {
		if terr := w.f.Truncate(w.size); terr != nil {
			w.broken = true
			return fmt.Errorf("storage: wal append: %w (rollback failed: %v)", err, terr)
		}
		if _, serr := w.f.Seek(w.size, io.SeekStart); serr != nil {
			w.broken = true
			return fmt.Errorf("storage: wal append: %w (reseek failed: %v)", err, serr)
		}
		return fmt.Errorf("storage: wal append: %w", err)
	}
	w.have[instance] = w.size
	w.size += int64(len(rec))
	w.m.walAppends.Inc()
	w.m.walBytes.Add(uint64(len(rec)))
	w.unsynced++
	if w.fsync && w.unsynced >= w.batch {
		return w.sync()
	}
	return nil
}

// sync flushes batched appends to stable storage.
func (w *wal) sync() error {
	if w.unsynced == 0 {
		return nil
	}
	if err := w.syncFile(); err != nil {
		return err
	}
	w.unsynced = 0
	return nil
}

func (w *wal) syncFile() error {
	if !w.fsync {
		return nil
	}
	start := time.Now()
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("storage: wal fsync: %w", err)
	}
	w.m.walFsyncNS.ObserveSince(start)
	return nil
}

// truncate drops every record with instance ≤ through by rewriting the log
// as the header plus the surviving records, in append order, read back
// through the offset index: the cost is the records a checkpoint keeps,
// not the log. The new file is made durable, then renamed over the log, so
// a crash at any point leaves either the old log or the new one. When
// nothing falls at or below through (every boot-time re-Install of the
// already-persisted newest checkpoint lands here) it does nothing. On
// failure the old log and the index stand unchanged.
func (w *wal) truncate(through uint64) error {
	type survivor struct {
		instance uint64
		off      int64
	}
	keep := make([]survivor, 0, len(w.have))
	for instance, off := range w.have {
		if instance > through {
			keep = append(keep, survivor{instance, off})
		}
	}
	if len(keep) == len(w.have) {
		return nil
	}
	slices.SortFunc(keep, func(a, b survivor) int { return cmp.Compare(a.off, b.off) })

	tmpPath := w.path + ".tmp"
	tmp, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("storage: wal truncate: %w", err)
	}
	fail := func(err error) error {
		_ = tmp.Close()
		_ = os.Remove(tmpPath)
		return fmt.Errorf("storage: wal truncate: %w", err)
	}
	buf := []byte(walHeader)
	have := make(map[uint64]int64, len(keep))
	for _, s := range keep {
		have[s.instance] = int64(len(buf))
		if buf, err = w.readRecord(buf, s.off); err != nil {
			return fail(err)
		}
	}
	if _, err := tmp.Write(buf); err != nil {
		return fail(err)
	}
	if w.fsync {
		if err := tmp.Sync(); err != nil {
			return fail(err)
		}
	}
	if err := os.Rename(tmpPath, w.path); err != nil {
		return fail(err)
	}
	_ = w.f.Close() // the old log is unlinked: nothing reads it again
	w.f = tmp
	w.have = have
	w.size = int64(len(buf))
	w.unsynced = 0
	w.broken = false
	w.m.compactions.Inc()
	return syncDir(filepath.Dir(w.path), w.fsync)
}

// readRecord appends the whole framed record at off to buf.
func (w *wal) readRecord(buf []byte, off int64) ([]byte, error) {
	var frame [8]byte
	if _, err := w.f.ReadAt(frame[:], off); err != nil {
		return buf, err
	}
	n := len(buf)
	buf = append(buf, make([]byte, 8+int(binary.BigEndian.Uint32(frame[0:4])))...)
	_, err := w.f.ReadAt(buf[n:], off)
	return buf, err
}

// close syncs and releases the file.
func (w *wal) close() error {
	err := w.sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// syncDir fsyncs a directory so a rename within it is durable.
func syncDir(dir string, fsync bool) error {
	if !fsync {
		return nil
	}
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("storage: opening dir for fsync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("storage: dir fsync: %w", err)
	}
	return nil
}
