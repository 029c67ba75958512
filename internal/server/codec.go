package server

// This file is the evaluate routes' wire codec. Decoding scans the request
// body once and builds each point's core.Job as its object closes, keeping
// encoding/json's contract for api.EvalRequest with unknown fields
// disallowed: case-insensitive keys, null values and elements that leave
// their target unchanged, duplicate keys whose later value wins, and the
// same split between a malformed body (400) and an overflowing one (413).
// Encoding appends each result with strconv under encoding/json's float
// and string rules, so a response is byte-identical to what
// json.Encoder writes for the same value.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"repro/flexwatts"
	"repro/flexwatts/api"
	"repro/internal/core"
	"repro/internal/domain"
	"repro/internal/pdn"
	"repro/internal/workload"
)

// maxNestingDepth is encoding/json's nesting limit: deeper input is a
// syntax error.
const maxNestingDepth = 10000

// maxBodyHint caps the buffer a request's Content-Length pre-sizes, so a
// declared length alone cannot make the server allocate the whole body cap.
const maxBodyHint = 1 << 20

var (
	// errUnexpectedEnd ends a scan whose data stops inside a value: a
	// truncated body (400) or, when the body overflowed, the cap (413).
	errUnexpectedEnd = errors.New("unexpected end of JSON input")
	errTrailingData  = errors.New("unexpected data after the JSON value")
)

// readBody reads the request body, capped at limit bytes, in one pass. A
// Content-Length sizes the buffer up front. When the body overflows, it
// returns the first limit bytes together with the *http.MaxBytesError.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	body := http.MaxBytesReader(w, r.Body, limit)
	size := int64(512)
	if r.ContentLength > 0 {
		size = min(r.ContentLength, limit, maxBodyHint) + 1
	}
	b := make([]byte, 0, size)
	for {
		n, err := body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// wirePoint is one request point as the wire spells it: the enum fields
// are unquoted string bytes (nil when absent), usually aliasing the body.
type wirePoint struct {
	pdn, workload, cstate []byte
	tdp, ar               float64
}

// enumMemo resolves one wire enum field through its flexwatts parser, the
// vocabulary of record. It starts from a seeded table of the canonical
// spellings, so they resolve with no allocation; another accepted spelling
// is parsed once and remembered for the rest of the request.
type enumMemo[T any] struct {
	parse func(string) (T, error)
	n     int
	keys  [16]string
	vals  [16]T
}

// seedMemo builds a memo over parse, pre-resolving the given spellings.
func seedMemo[T any](parse func(string) (T, error), spellings ...string) enumMemo[T] {
	m := enumMemo[T]{parse: parse}
	for _, s := range spellings {
		if _, err := m.lookup([]byte(s)); err != nil {
			panic(err)
		}
	}
	return m
}

// lookup resolves b, parsing it on a miss.
func (m *enumMemo[T]) lookup(b []byte) (T, error) {
	for i := range m.n {
		if string(b) == m.keys[i] {
			return m.vals[i], nil
		}
	}
	s := string(b)
	v, err := m.parse(s)
	if err == nil && m.n < len(m.keys) {
		m.keys[m.n], m.vals[m.n] = s, v
		m.n++
	}
	return v, err
}

// Seeded memos: the names the typed enums render, plus the empty string an
// absent optional field decodes to.
var (
	kindSeed     = seedMemo(flexwatts.ParseKind, names(flexwatts.AllKinds())...)
	workloadSeed = seedMemo(flexwatts.ParseWorkloadType,
		names([]flexwatts.WorkloadType{flexwatts.WorkloadUnset, flexwatts.SingleThread,
			flexwatts.MultiThread, flexwatts.Graphics, flexwatts.BatteryLife})...)
	cstateSeed = seedMemo(flexwatts.ParseCState, append([]string{""}, names(flexwatts.CStates())...)...)
)

// names renders each value with its String method.
func names[T fmt.Stringer](vals []T) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = v.String()
	}
	return out
}

// evalDecoder is one scan of an evaluate request body.
type evalDecoder struct {
	data []byte
	pos  int
	// overflow marks data as the capped prefix of a longer body.
	overflow bool
	depth    int
	// err is the first syntax error, or errUnexpectedEnd; it ends the scan.
	err error
	// typeErr is the first value of the wrong JSON type or unknown field;
	// the scan goes on, so a later syntax error or overflow still decides
	// the status as encoding/json's would.
	typeErr error

	plat     *domain.Platform
	maxBatch int
	kinds    enumMemo[flexwatts.Kind]
	wls      enumMemo[flexwatts.WorkloadType]
	cstates  enumMemo[flexwatts.CState]

	// n counts the elements of the latest points array. jobs holds the
	// first min(n, maxBatch) points' jobs up to the first invalid one, bad.
	n      int
	jobs   []core.Job
	bad    int
	badErr error
	// A points array that follows a non-empty one merges into its
	// elements, as encoding/json decodes into the existing slice. Jobs
	// cannot be built during such a scan (needDup); the rescan (dup) keeps
	// every element's wire state in hist instead.
	needDup bool
	dup     bool
	hist    []wirePoint
}

// decodeEval decodes an evaluate request body. It returns the jobs, or the
// error response: an overflowing body is api.ErrBatchTooLarge, everything
// else api.ErrInvalidPoint. readErr is the error readBody returned.
func (s *Server) decodeEval(data []byte, readErr error) ([]core.Job, error) {
	var tooBig *http.MaxBytesError
	overflow := errors.As(readErr, &tooBig)
	if readErr != nil && !overflow {
		return nil, fmt.Errorf("%w: bad request body: %v", api.ErrInvalidPoint, readErr)
	}
	d := &evalDecoder{
		data: data, overflow: overflow, plat: s.env.Platform, maxBatch: s.opts.MaxBatch,
		kinds: kindSeed, wls: workloadSeed, cstates: cstateSeed, bad: -1,
	}
	d.jobs = make([]core.Job, 0, min(d.maxBatch, bytes.Count(data, []byte{'{'})))
	d.decode()
	switch {
	case d.err == errUnexpectedEnd && overflow:
		return nil, fmt.Errorf("%w: request body exceeds %d bytes", api.ErrBatchTooLarge, tooBig.Limit)
	case d.err != nil:
		return nil, fmt.Errorf("%w: bad request body: %v", api.ErrInvalidPoint, d.err)
	case d.typeErr != nil:
		return nil, fmt.Errorf("%w: bad request body: %v", api.ErrInvalidPoint, d.typeErr)
	}
	if d.needDup {
		d.rescan()
	}
	if d.n == 0 {
		return nil, fmt.Errorf("%w: request has no points", api.ErrInvalidPoint)
	}
	if d.n > d.maxBatch {
		return nil, fmt.Errorf("%w: %d points exceeds the %d-point batch cap",
			api.ErrBatchTooLarge, d.n, d.maxBatch)
	}
	if d.bad >= 0 {
		return nil, fmt.Errorf("point %d: %w", d.bad, d.badErr)
	}
	return d.jobs, nil
}

// rescan decodes the (already validated) body again, keeping every
// element's wire state so merging points arrays resolve as encoding/json
// resolves them, then builds the final array's jobs.
func (d *evalDecoder) rescan() {
	d.pos, d.depth, d.n, d.dup = 0, 0, 0, true
	d.decode()
	d.jobs = d.jobs[:0]
	for i := range min(d.n, d.maxBatch) {
		job, err := d.job(&d.hist[i])
		if err != nil {
			d.bad, d.badErr = i, err
			return
		}
		d.jobs = append(d.jobs, job)
	}
}

// decode scans the body: one value, then nothing but whitespace.
func (d *evalDecoder) decode() {
	d.space()
	c, ok := d.peek()
	if !ok {
		return
	}
	switch c {
	case '{':
		d.request()
	case 'n':
		d.literal("null")
	default:
		d.wrongType(c, "api.EvalRequest")
		d.skip()
	}
	if d.err != nil {
		return
	}
	// A top-level scalar only ends at the byte after it.
	d.scalarEnd(c)
	if d.err != nil || d.typeErr != nil {
		return
	}
	d.trailing()
}

// scalarEnd ends the scan when the value that began with c is a scalar
// running to the end of an overflowing prefix: encoding/json reads one
// more byte to end it, and that read overflows.
func (d *evalDecoder) scalarEnd(c byte) {
	if c != '{' && c != '[' && d.pos == len(d.data) && d.overflow {
		d.fail(errUnexpectedEnd)
	}
}

// trailing checks what follows the request value the way json.Decoder's
// Token does: only whitespace may follow. A second scalar is read whole
// before it is rejected, so its syntax, or an overflow inside it, decides
// the error.
func (d *evalDecoder) trailing() {
	d.space()
	if d.pos == len(d.data) {
		if d.overflow {
			d.fail(errUnexpectedEnd)
		}
		return
	}
	switch c := d.data[d.pos]; c {
	case '"', '-', '0', '1', '2', '3', '4', '5', '6', '7', '8', '9', 't', 'f', 'n':
		d.skip()
		if d.scalarEnd(c); d.err != nil {
			return
		}
	}
	d.fail(errTrailingData)
}

// request scans the top-level object.
func (d *evalDecoder) request() {
	d.open()
	for first := true; d.more('}', first); first = false {
		key := d.key()
		if d.err != nil {
			return
		}
		if field(key, requestFields) == 0 {
			d.points()
		} else {
			d.unknownField(key)
			d.skip()
		}
	}
}

// points scans a "points" value: null or [] empties the array, another
// array replaces it (or merges into it, see needDup).
func (d *evalDecoder) points() {
	c, ok := d.peek()
	if !ok {
		return
	}
	switch c {
	case 'n':
		d.literal("null")
		d.empty()
	case '[':
		merge := d.n > 0
		d.n, d.jobs, d.bad = 0, d.jobs[:0], -1
		d.open()
		for first := true; d.more(']', first); first = false {
			if merge && !d.dup {
				d.needDup = true
			}
			d.element()
		}
		if d.n == 0 {
			d.empty()
		}
	default:
		d.wrongType(c, "[]api.EvalPoint")
		d.skip()
	}
}

// empty resets the points array to a fresh, empty one.
func (d *evalDecoder) empty() {
	d.n, d.jobs, d.bad, d.hist = 0, d.jobs[:0], -1, d.hist[:0]
}

// element scans one points element and, outside a merging scan, builds
// its job as soon as it closes.
func (d *evalDecoder) element() {
	i := d.n
	d.n++
	var local wirePoint
	w := &local
	if d.dup && i < d.maxBatch {
		if i == len(d.hist) {
			d.hist = append(d.hist, wirePoint{})
		}
		w = &d.hist[i]
	}
	c, ok := d.peek()
	if !ok {
		return
	}
	switch c {
	case '{':
		d.point(w)
	case 'n':
		d.literal("null")
	default:
		d.wrongType(c, "api.EvalPoint")
		d.skip()
		return
	}
	if d.err != nil || d.typeErr != nil || d.dup || d.needDup || d.bad >= 0 || i >= d.maxBatch {
		return
	}
	job, err := d.job(w)
	if err != nil {
		d.bad, d.badErr = i, err
		return
	}
	d.jobs = append(d.jobs, job)
}

// point scans one point object into w.
func (d *evalDecoder) point(w *wirePoint) {
	d.open()
	for first := true; d.more('}', first); first = false {
		key := d.key()
		if d.err != nil {
			return
		}
		switch field(key, pointFields) {
		case fieldPDN:
			d.stringField(&w.pdn)
		case fieldTDP:
			d.numberField(&w.tdp)
		case fieldWorkload:
			d.stringField(&w.workload)
		case fieldAR:
			d.numberField(&w.ar)
		case fieldCState:
			d.stringField(&w.cstate)
		default:
			d.unknownField(key)
			d.skip()
		}
	}
}

// The wire field names of api.EvalRequest and api.EvalPoint; a point's
// field constants index pointFields.
var (
	requestFields = []string{"points"}
	pointFields   = []string{"pdn", "tdp", "workload", "ar", "cstate"}
)

const (
	fieldPDN = iota
	fieldTDP
	fieldWorkload
	fieldAR
	fieldCState
)

// field returns the index of the name key selects, or -1. As in
// encoding/json, an exact match wins, then any bytes.EqualFold match.
func field(key []byte, names []string) int {
	for i, name := range names {
		if string(key) == name {
			return i
		}
	}
	for i, name := range names {
		if bytes.EqualFold(key, []byte(name)) {
			return i
		}
	}
	return -1
}

func (d *evalDecoder) stringField(dst *[]byte) {
	c, ok := d.peek()
	switch {
	case !ok:
	case c == '"':
		*dst = d.str()
	case c == 'n':
		d.literal("null")
	default:
		d.wrongType(c, "string")
		d.skip()
	}
}

func (d *evalDecoder) numberField(dst *float64) {
	c, ok := d.peek()
	switch {
	case !ok:
	case c == '-' || '0' <= c && c <= '9':
		tok := d.number()
		if d.err != nil {
			return
		}
		f, err := strconv.ParseFloat(string(tok), 64)
		if err != nil {
			d.typeFail(fmt.Errorf("cannot unmarshal number %s into float64", tok))
			return
		}
		*dst = f
	case c == 'n':
		d.literal("null")
	default:
		d.wrongType(c, "float64")
		d.skip()
	}
}

// job validates one wire point into an evaluable job. The enums resolve
// through the flexwatts parsers and flexwatts.Point.Validate applies the
// library's rules, so the daemon accepts exactly the points the library
// does; the typed values then convert straight to the internal ones.
func (d *evalDecoder) job(w *wirePoint) (core.Job, error) {
	kind, err := d.kinds.lookup(w.pdn)
	if err != nil {
		return core.Job{}, fmt.Errorf("%w: %v", api.ErrInvalidPoint, err)
	}
	wt, err := d.wls.lookup(w.workload)
	if err != nil {
		return core.Job{}, fmt.Errorf("%w: %v", api.ErrInvalidPoint, err)
	}
	cs, err := d.cstates.lookup(w.cstate)
	if err != nil {
		return core.Job{}, fmt.Errorf("%w: %v", api.ErrInvalidPoint, err)
	}
	pt := flexwatts.Point{PDN: kind, TDP: flexwatts.Watt(w.tdp), Workload: wt, AR: w.ar, CState: cs}
	if err := pt.Validate(); err != nil {
		return core.Job{}, fmt.Errorf("%w: %v", api.ErrInvalidPoint, err)
	}
	tdp := w.tdp
	if cs != flexwatts.C0 {
		// Battery-life states (C0MIN and package C2…C8) evaluate the
		// fig4j/fig8c scenarios; the TDP only steers FlexWatts' predictor.
		if tdp == 0 {
			tdp = 4 // battery-life evaluation is TDP-independent (§7.1)
		}
		return core.Job{Kind: internalKind[kind], Scenario: workload.CStateScenario(d.plat, internalCState[cs]), TDP: tdp}, nil
	}
	sc, err := workload.TDPScenario(d.plat, tdp, internalWorkloadType[wt], w.ar)
	if err != nil {
		return core.Job{}, fmt.Errorf("%w: %v", api.ErrInvalidPoint, err)
	}
	return core.Job{Kind: internalKind[kind], Scenario: sc, TDP: tdp}, nil
}

// The internal enums, indexed by the parsed typed values. A workload
// class is only read for a validated active point, so never unset.
var (
	internalKind = [...]pdn.Kind{flexwatts.FlexWatts: pdn.FlexWatts, flexwatts.IVR: pdn.IVR,
		flexwatts.MBVR: pdn.MBVR, flexwatts.LDO: pdn.LDO, flexwatts.IMBVR: pdn.IMBVR}
	internalWorkloadType = [...]workload.Type{flexwatts.SingleThread: workload.SingleThread,
		flexwatts.MultiThread: workload.MultiThread, flexwatts.Graphics: workload.Graphics,
		flexwatts.BatteryLife: workload.BatteryLife}
	internalCState = [...]domain.CState{flexwatts.C0: domain.C0, flexwatts.C0MIN: domain.C0MIN,
		flexwatts.C2: domain.C2, flexwatts.C3: domain.C3, flexwatts.C6: domain.C6,
		flexwatts.C7: domain.C7, flexwatts.C8: domain.C8}
)

// Scanner primitives. Each records the first syntax error in d.err and
// leaves callers to stop on it.

func (d *evalDecoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *evalDecoder) syntax(c byte, context string) {
	d.fail(fmt.Errorf("invalid character %q %s at offset %d", c, context, d.pos))
}

func (d *evalDecoder) typeFail(err error) {
	if d.typeErr == nil {
		d.typeErr = err
	}
}

// wrongType records a value, starting with c, of the wrong JSON type.
func (d *evalDecoder) wrongType(c byte, into string) {
	if d.typeErr != nil {
		return
	}
	kind := "number"
	switch c {
	case '{':
		kind = "object"
	case '[':
		kind = "array"
	case '"':
		kind = "string"
	case 't', 'f':
		kind = "bool"
	}
	d.typeFail(fmt.Errorf("cannot unmarshal %s into %s", kind, into))
}

func (d *evalDecoder) unknownField(key []byte) {
	if d.typeErr == nil {
		d.typeFail(fmt.Errorf("unknown field %q", key))
	}
}

// space skips JSON whitespace.
func (d *evalDecoder) space() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// peek returns the byte at pos, ending the scan at the end of the data.
func (d *evalDecoder) peek() (byte, bool) {
	if d.err != nil {
		return 0, false
	}
	if d.pos == len(d.data) {
		d.fail(errUnexpectedEnd)
		return 0, false
	}
	return d.data[d.pos], true
}

// open consumes the '{' or '[' at pos.
func (d *evalDecoder) open() {
	d.pos++
	if d.depth++; d.depth > maxNestingDepth {
		d.fail(fmt.Errorf("exceeded max depth at offset %d", d.pos))
	}
}

// more reports whether the open object or array has another member,
// consuming the separator before it, or else its closing byte.
func (d *evalDecoder) more(close byte, first bool) bool {
	d.space()
	c, ok := d.peek()
	switch {
	case !ok:
		return false
	case c == close:
		d.pos++
		d.depth--
		return false
	case first:
		return true
	case c != ',':
		d.syntax(c, "after a member")
		return false
	}
	d.pos++
	d.space()
	return true
}

// key scans an object key and its ':' and returns the unquoted key.
func (d *evalDecoder) key() []byte {
	c, ok := d.peek()
	if !ok {
		return nil
	}
	if c != '"' {
		d.syntax(c, "looking for beginning of object key string")
		return nil
	}
	k := d.str()
	d.space()
	if c, ok = d.peek(); !ok {
		return nil
	}
	if c != ':' {
		d.syntax(c, "after object key")
		return nil
	}
	d.pos++
	d.space()
	return k
}

// skip scans one value of any type.
func (d *evalDecoder) skip() {
	c, ok := d.peek()
	if !ok {
		return
	}
	switch c {
	case '{':
		d.open()
		for first := true; d.more('}', first); first = false {
			if d.key(); d.err != nil {
				return
			}
			d.skip()
		}
	case '[':
		d.open()
		for first := true; d.more(']', first); first = false {
			d.skip()
		}
	case '"':
		d.stringToken()
	case 't':
		d.literal("true")
	case 'f':
		d.literal("false")
	case 'n':
		d.literal("null")
	default:
		if c == '-' || '0' <= c && c <= '9' {
			d.number()
			return
		}
		d.syntax(c, "looking for beginning of value")
	}
}

// literal scans the literal word at pos.
func (d *evalDecoder) literal(word string) {
	for i := range len(word) {
		c, ok := d.peek()
		if !ok {
			return
		}
		if c != word[i] {
			d.syntax(c, "in literal "+word)
			return
		}
		d.pos++
	}
}

// number scans a number token by the JSON grammar and returns it.
func (d *evalDecoder) number() []byte {
	start := d.pos
	if d.data[d.pos] == '-' {
		d.pos++
	}
	c, ok := d.peek()
	switch {
	case !ok:
		return nil
	case c == '0':
		d.pos++
	case '1' <= c && c <= '9':
		d.digits()
	default:
		d.syntax(c, "in numeric literal")
		return nil
	}
	if d.pos < len(d.data) && d.data[d.pos] == '.' {
		d.pos++
		if !d.digit() {
			return nil
		}
		d.digits()
	}
	if d.pos < len(d.data) && (d.data[d.pos] == 'e' || d.data[d.pos] == 'E') {
		d.pos++
		if d.pos < len(d.data) && (d.data[d.pos] == '+' || d.data[d.pos] == '-') {
			d.pos++
		}
		if !d.digit() {
			return nil
		}
		d.digits()
	}
	return d.data[start:d.pos]
}

// digit reports whether a digit is at pos, failing the scan if not.
func (d *evalDecoder) digit() bool {
	c, ok := d.peek()
	if ok && !('0' <= c && c <= '9') {
		d.syntax(c, "in numeric literal")
		return false
	}
	return ok
}

func (d *evalDecoder) digits() {
	for d.pos < len(d.data) && '0' <= d.data[d.pos] && d.data[d.pos] <= '9' {
		d.pos++
	}
}

// str scans a string token and returns its unquoted bytes: a slice of the
// body when the token is plain ASCII without escapes, a fresh copy
// otherwise.
func (d *evalDecoder) str() []byte {
	raw, plain := d.stringToken()
	if plain || d.err != nil {
		return raw
	}
	return unquote(raw)
}

// stringToken scans the string token at pos and returns its raw contents
// and whether they are plain ASCII with no escapes.
func (d *evalDecoder) stringToken() (raw []byte, plain bool) {
	start := d.pos + 1
	plain = true
	for i := start; ; {
		if i >= len(d.data) {
			d.pos = i
			d.fail(errUnexpectedEnd)
			return nil, false
		}
		switch c := d.data[i]; {
		case c == '"':
			d.pos = i + 1
			return d.data[start:i], plain
		case c == '\\':
			plain = false
			i++
			if i >= len(d.data) {
				d.pos = i
				d.fail(errUnexpectedEnd)
				return nil, false
			}
			switch d.data[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i++
			case 'u':
				for range 4 {
					i++
					if i >= len(d.data) {
						d.pos = i
						d.fail(errUnexpectedEnd)
						return nil, false
					}
					if !isHex(d.data[i]) {
						d.pos = i
						d.syntax(d.data[i], "in \\u hexadecimal character escape")
						return nil, false
					}
				}
				i++
			default:
				d.pos = i
				d.syntax(d.data[i], "in string escape code")
				return nil, false
			}
		case c < ' ':
			d.pos = i
			d.syntax(c, "in string literal")
			return nil, false
		default:
			if c >= utf8.RuneSelf {
				plain = false
			}
			i++
		}
	}
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// unquote decodes the contents of a scanned string token as encoding/json
// does: escapes are resolved, an unpaired surrogate escape or an invalid
// UTF-8 byte becomes U+FFFD.
func unquote(s []byte) []byte {
	b := make([]byte, 0, len(s)+2*utf8.UTFMax)
	for r := 0; r < len(s); {
		c := s[r]
		switch {
		case c == '\\':
			switch e := s[r+1]; e {
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				rr := getu4(s[r:])
				r += 6
				if utf16.IsSurrogate(rr) {
					if dec := utf16.DecodeRune(rr, getu4(s[r:])); dec != unicode.ReplacementChar {
						b = utf8.AppendRune(b, dec)
						r += 6
						continue
					}
					rr = unicode.ReplacementChar
				}
				b = utf8.AppendRune(b, rr)
				continue
			default: // '"', '\\', '/'
				b = append(b, e)
			}
			r += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			r++
		default:
			rr, size := utf8.DecodeRune(s[r:])
			b = utf8.AppendRune(b, rr)
			r += size
		}
	}
	return b
}

// getu4 decodes the \uXXXX escape at the start of s, or returns -1.
func getu4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// Encoding.

// evalBufPool pools the evaluate routes' response buffers, so steady load
// reuses one grown buffer per concurrent request.
var evalBufPool = sync.Pool{New: func() any { return new([]byte) }}

// resultBytes is about the encoded size of one api.EvalResult, for sizing
// a fresh response buffer.
const resultBytes = 128

func getEvalBuf() *[]byte { return evalBufPool.Get().(*[]byte) }

func putEvalBuf(bp *[]byte, b []byte) {
	if cap(b) <= pooledBufMaxBytes {
		*bp = b[:0]
		evalBufPool.Put(bp)
	}
}

// writeEvalResponse writes the /v1/evaluate 200 body. It encodes before
// committing the status line, so an unencodable result becomes an error
// response instead of a truncated 200.
func writeEvalResponse(w http.ResponseWriter, results []api.EvalResult, workers int) {
	bp := getEvalBuf()
	b := *bp
	if need := 32 + resultBytes*len(results); cap(b) < need {
		b = make([]byte, 0, need) // one allocation, not an append chain
	}
	b, err := appendEvalResponse(b, results, workers)
	if err != nil {
		putEvalBuf(bp, b)
		writeErr(w, fmt.Errorf("encoding response: %v", err))
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write(b) //nolint:errcheck // response already committed
	putEvalBuf(bp, b)
}

// appendEvalResponse appends an api.EvalResponse as json.Encoder writes
// it, trailing newline included.
func appendEvalResponse(b []byte, results []api.EvalResult, workers int) ([]byte, error) {
	b = append(b, `{"results":`...)
	if results == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range results {
			if i > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = appendResult(b, &results[i]); err != nil {
				return b, err
			}
		}
		b = append(b, ']')
	}
	b = append(b, `,"workers":`...)
	b = strconv.AppendInt(b, int64(workers), 10)
	return append(b, "}\n"...), nil
}

// appendStreamLine appends one api.EvalStreamResult NDJSON line as
// json.Encoder writes it.
func appendStreamLine(b []byte, line *api.EvalStreamResult) ([]byte, error) {
	b = append(b, `{"index":`...)
	b = strconv.AppendInt(b, int64(line.Index), 10)
	if line.Result != nil {
		b = append(b, `,"result":`...)
		var err error
		if b, err = appendResult(b, line.Result); err != nil {
			return b, err
		}
	}
	if line.Code != "" {
		b = append(b, `,"code":`...)
		b = appendString(b, line.Code)
	}
	if line.Error != "" {
		b = append(b, `,"error":`...)
		b = appendString(b, line.Error)
	}
	return append(b, "}\n"...), nil
}

// appendResult appends one api.EvalResult object.
func appendResult(b []byte, r *api.EvalResult) ([]byte, error) {
	b = append(b, `{"pdn":`...)
	b = appendString(b, r.PDN)
	b = append(b, `,"cstate":`...)
	b = appendString(b, r.CState)
	var err error
	for _, f := range [...]struct {
		key string
		v   float64
	}{{`,"etee":`, r.ETEE}, {`,"p_nom":`, r.PNom}, {`,"p_in":`, r.PIn}, {`,"loss":`, r.Loss}} {
		b = append(b, f.key...)
		if b, err = appendFloat(b, f.v); err != nil {
			return b, err
		}
	}
	return append(b, '}'), nil
}

// appendFloat appends f by encoding/json's float64 rule: the shortest
// representation in 'f' format, in 'e' format below 1e-6 or from 1e21 in
// magnitude, with a two-digit negative exponent cut to one digit. NaN and
// ±Inf are the encoder's error.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string with encoding/json's default
// escaping: control bytes, '"', '\\', and the HTML-sensitive '<', '>' and
// '&' are escaped, U+2028/U+2029 too, and invalid UTF-8 becomes \ufffd.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
