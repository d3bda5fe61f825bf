package cas

// The persistent tier: a single-file, stdlib-only, append-only log.
//
// Layout:
//
//	header:  magic "MODCAS\x02" | u32 len | fingerprint bytes
//	record:  u8 kind | u32 payloadLen | payload | u32 crc32(payload)
//
// Digest payload:   u8 source | str module | token ref | token own |
//	                 str key | u32 n | n × str name
// Mismatch payload: u8 source | str module | token ref | str keyA |
//	                 str keyB | u32 n | n × str component
//
// where str is u32 len | bytes and token is u64 id | u64 epoch (big
// endian). Every record is independently CRC-checked, so a crash mid-append
// leaves at most one torn record at the tail; Open truncates the file back
// to the last whole record and the index rebuild proceeds from what
// survived. Appends always land at the verified end.
//
// Tokens embed mm.ContentID base-layer identities — fingerprints of the
// frozen frame contents — so the same cloud built twice (same seed and
// shape) mints the same tokens and a reopened log serves hits immediately.
// Two *different* clouds could still collide on a fingerprint's epoch
// component, since mapping epochs restart at zero per process. The
// fingerprint in the header guards against that: callers derive it from
// whatever determines their cloud's content (seed, VM count, template
// count, disk set), and opening a file written under a different
// fingerprint discards its contents instead of serving another universe's
// digests.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// logMagic names the log format. Version 2 added each record's source and
// made the "" cluster key mean every copy the reference covers, so a
// version-1 log is reset on open rather than replayed.
var logMagic = []byte("MODCAS\x02")

// maxLogString bounds any one length-prefixed string in the log, so a
// corrupted length field cannot make the reader attempt a giant allocation.
const maxLogString = 1 << 20

// maxLogPayload bounds one record's payload.
const maxLogPayload = 16 << 20

// logFile is the open persistent tier.
type logFile struct {
	f   *os.File
	err error // first append failure; surfaced by flush/close
}

// Open opens (or creates) the persistent store at path and replays its log
// into a fresh in-memory index. fingerprint must identify the content
// universe the tokens come from; a file carrying a different fingerprint is
// reset to empty rather than replayed. maxEntries bounds the in-memory tier
// exactly as in NewStore.
func Open(path, fingerprint string, maxEntries int) (*Store, error) {
	s := NewStore(maxEntries)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("cas: opening store: %w", err)
	}
	end, loaded, err := replay(f, fingerprint, s)
	if err != nil {
		f.Close()
		return nil, err
	}
	// Drop any torn tail and position every future append at the verified
	// end.
	if err := f.Truncate(end); err != nil {
		f.Close()
		return nil, fmt.Errorf("cas: truncating torn tail: %w", err)
	}
	if _, err := f.Seek(end, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("cas: seeking to log end: %w", err)
	}
	s.log = &logFile{f: f}
	// Replay routed records through the normal insert path; reset the
	// counter so Inserts means sweep-driven inserts, not Loaded again.
	s.stats.Inserts = 0
	s.stats.Loaded = loaded
	s.stats.Persistent = true
	return s, nil
}

// replay validates the header (writing a fresh one on an empty or
// mismatched file) and replays every whole record into the store, returning
// the offset of the last whole record's end and how many entries loaded.
func replay(f *os.File, fingerprint string, s *Store) (end int64, loaded int, err error) {
	info, err := f.Stat()
	if err != nil {
		return 0, 0, fmt.Errorf("cas: stat store: %w", err)
	}
	header := encodeHeader(fingerprint)
	if info.Size() > 0 {
		have := make([]byte, len(header))
		if _, rerr := io.ReadFull(f, have); rerr == nil && string(have) == string(header) {
			// Header matches: replay records from here.
			return replayRecords(f, int64(len(header)), s)
		}
		// Short, corrupt, or foreign-fingerprint header: this file's tokens
		// (if any) come from a different content universe. Start over.
		if err := f.Truncate(0); err != nil {
			return 0, 0, fmt.Errorf("cas: resetting foreign store: %w", err)
		}
	}
	if _, err := f.WriteAt(header, 0); err != nil {
		return 0, 0, fmt.Errorf("cas: writing store header: %w", err)
	}
	return int64(len(header)), 0, nil
}

// replayRecords reads whole records starting at offset start, inserting
// each into the store, and stops (without error) at the first torn or
// corrupt record — everything after it is discarded by the caller's
// truncate.
func replayRecords(f *os.File, start int64, s *Store) (end int64, loaded int, err error) {
	end = start
	if _, err := f.Seek(start, io.SeekStart); err != nil {
		return 0, 0, fmt.Errorf("cas: seeking past header: %w", err)
	}
	r := &countingReader{r: f}
	var head [5]byte
	for {
		if _, err := io.ReadFull(r, head[:]); err != nil {
			return end, loaded, nil // clean EOF or torn length prefix
		}
		kind := head[0]
		n := binary.BigEndian.Uint32(head[1:])
		if n > maxLogPayload {
			return end, loaded, nil
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return end, loaded, nil
		}
		var sum [4]byte
		if _, err := io.ReadFull(r, sum[:]); err != nil {
			return end, loaded, nil
		}
		if binary.BigEndian.Uint32(sum[:]) != crc32.ChecksumIEEE(payload) {
			return end, loaded, nil
		}
		if applyRecord(s, kind, payload) {
			loaded++
		}
		end = start + r.n
	}
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// applyRecord decodes one verified payload into the store. Unknown kinds
// and malformed payloads are skipped — they fail no one, they just do not
// load. Replayed inserts go through the normal insert path, so the FIFO
// bound applies and later records win (the log is append-only; a re-written
// entry's newest version is replayed last).
func applyRecord(s *Store, kind byte, payload []byte) bool {
	d := &decoder{buf: payload}
	switch kind {
	case kindDigest:
		src := d.source()
		module := d.str()
		ref := d.token()
		own := d.token()
		key := d.str()
		names := d.strs()
		if d.bad {
			return false
		}
		s.InsertDigestFrom(src, module, ref, own, Entry{Key: key, Names: names})
		return true
	case kindMismatch:
		src := d.source()
		module := d.str()
		ref := d.token()
		ka := d.str()
		kb := d.str()
		mm := d.strs()
		if d.bad {
			return false
		}
		s.InsertMismatchFrom(src, module, ref, ka, kb, mm)
		return true
	}
	return false
}

func encodeHeader(fingerprint string) []byte {
	b := append([]byte(nil), logMagic...)
	b = binary.BigEndian.AppendUint32(b, uint32(len(fingerprint)))
	return append(b, fingerprint...)
}

// encoder builds one record payload.
type encoder struct{ buf []byte }

func (e *encoder) str(s string) {
	e.buf = binary.BigEndian.AppendUint32(e.buf, uint32(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *encoder) token(t Token) {
	e.buf = binary.BigEndian.AppendUint64(e.buf, t.ID)
	e.buf = binary.BigEndian.AppendUint64(e.buf, t.Epoch)
}

func (e *encoder) strs(ss []string) {
	e.buf = binary.BigEndian.AppendUint32(e.buf, uint32(len(ss)))
	for _, s := range ss {
		e.str(s)
	}
}

// decoder parses one record payload; bad latches on any malformed field.
type decoder struct {
	buf []byte
	bad bool
}

func (d *decoder) source() Source {
	if d.bad || len(d.buf) < 1 {
		d.bad = true
		return 0
	}
	src := Source(d.buf[0])
	d.buf = d.buf[1:]
	return src
}

func (d *decoder) str() string {
	if d.bad || len(d.buf) < 4 {
		d.bad = true
		return ""
	}
	n := binary.BigEndian.Uint32(d.buf)
	d.buf = d.buf[4:]
	if n > maxLogString || uint32(len(d.buf)) < n {
		d.bad = true
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

func (d *decoder) token() Token {
	if d.bad || len(d.buf) < 16 {
		d.bad = true
		return Token{}
	}
	t := Token{
		ID:    binary.BigEndian.Uint64(d.buf),
		Epoch: binary.BigEndian.Uint64(d.buf[8:]),
		OK:    true,
	}
	d.buf = d.buf[16:]
	return t
}

func (d *decoder) strs() []string {
	if d.bad || len(d.buf) < 4 {
		d.bad = true
		return nil
	}
	n := binary.BigEndian.Uint32(d.buf)
	d.buf = d.buf[4:]
	if n > maxLogString {
		d.bad = true
		return nil
	}
	out := make([]string, 0, n)
	for i := uint32(0); i < n; i++ {
		out = append(out, d.str())
	}
	if d.bad {
		return nil
	}
	return out
}

// appendDigest writes one digest record. Called with the store lock held.
func (l *logFile) appendDigest(src Source, module string, ref, own Token, e Entry) {
	enc := encoder{buf: []byte{byte(src)}}
	enc.str(module)
	enc.token(ref)
	enc.token(own)
	enc.str(e.Key)
	enc.strs(e.Names)
	l.appendRecord(kindDigest, enc.buf)
}

// appendMismatch writes one mismatch record. Called with the store lock
// held.
func (l *logFile) appendMismatch(src Source, module string, ref Token, ka, kb string, mm []string) {
	enc := encoder{buf: []byte{byte(src)}}
	enc.str(module)
	enc.token(ref)
	enc.str(ka)
	enc.str(kb)
	enc.strs(mm)
	l.appendRecord(kindMismatch, enc.buf)
}

// appendRecord frames and appends one record in a single write, so a crash
// can tear at most the final record — which replay then drops.
func (l *logFile) appendRecord(kind byte, payload []byte) {
	if l.err != nil {
		return
	}
	rec := make([]byte, 0, 9+len(payload))
	rec = append(rec, kind)
	rec = binary.BigEndian.AppendUint32(rec, uint32(len(payload)))
	rec = append(rec, payload...)
	rec = binary.BigEndian.AppendUint32(rec, crc32.ChecksumIEEE(payload))
	if _, err := l.f.Write(rec); err != nil {
		l.err = fmt.Errorf("cas: appending record: %w", err)
	}
}

func (l *logFile) flush() error {
	if l.err != nil {
		return l.err
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("cas: syncing store: %w", err)
	}
	return nil
}

func (l *logFile) close() error {
	err := l.err
	if cerr := l.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("cas: closing store: %w", cerr)
	}
	return err
}
