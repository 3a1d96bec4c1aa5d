package codec

import (
	"encoding/binary"
	"errors"
	"io"
	"math/bits"
	"sync"
)

// The decoder every Reader inflates with: zlib (RFC 1950) around deflate
// (RFC 1951), accepting exactly the streams compress/zlib accepts
// (FuzzInflate holds it to that). It differs from compress/zlib in where
// its bytes come from and go to. Input is a 64-bit bit buffer refilled
// eight bytes at a time from the StreamReader's published window, with the
// StreamBuffer's lock taken only when the window runs out. Output goes
// straight into the segment's destination, which is also the history
// matches copy from: there is no ring buffer and no copy out of one.
// Huffman codes decode through one table lookup (litRoot and distRoot
// bits), codes longer than that through a canonical walk, and the tables
// live in the pooled inflater, so a warm decode allocates nothing per
// block.
//
// It stops only where its output does: run returns once the destination
// is filled to the caller's limit, keeping the block's tables and any
// unfinished match or stored run, and blocks on the StreamBuffer when the
// bits it needs have not arrived.

// Table entries: the code's length in bits (entN), what it stands for
// (entLit, entEOB, or a base length or distance followed by the number of
// extra bits at extraShift), and the value at valShift. entSpecial in entN
// marks an index no code of root length or less matches: with entLong, a
// longer code starts there; without, the index or its symbol is invalid.
// It is larger than any bit count, so the hot loop's one comparison sends
// both to slowSym.
const (
	litRoot  = 10
	distRoot = 8
	clenRoot = 7 // code length codes are at most 7 bits

	entN       = 0x7f
	entSpecial = 0x7f
	entLit     = 1 << 7
	entEOB     = 1 << 8
	entLong    = 1 << 9
	extraShift = 10 // 4 bits
	valShift   = 16

	maxCodeLen = 15
	numLit     = 286 // literal/length symbols a dynamic block may use
	numDist    = 30
)

var (
	errZlibHeader = errors.New("invalid zlib header")
	errDeflate    = errors.New("invalid deflate data")
	errAdler      = errors.New("Adler-32 mismatch")
	errTooLong    = errors.New("stream continues past the segment's length")
	errTooShort   = errors.New("stream ends before the segment's length")
)

// huffTable is one canonical Huffman code.
type huffTable struct {
	root   [1 << litRoot]uint32 // indexed by the next rootBits input bits
	bits   uint                 // root index bits
	count  [maxCodeLen + 1]uint16
	sorted [288]uint32 // symbol entries, without length, in canonical order
}

// build makes t the code with the given lengths, whose symbols stand for
// syms, and reports whether compress/flate would accept it: a complete
// code, a single code of length one, or no code at all (which fails when
// used).
func (t *huffTable) build(lengths []uint8, syms []uint32, rootBits uint) bool {
	t.bits = rootBits
	t.count = [maxCodeLen + 1]uint16{}
	for _, n := range lengths {
		t.count[n]++
	}
	t.count[0] = 0
	left, maxLen := 1, 0
	for l := 1; l <= maxCodeLen; l++ {
		if left = left<<1 - int(t.count[l]); left < 0 {
			return false // over-subscribed
		}
		if t.count[l] > 0 {
			maxLen = l
		}
	}
	if left != 0 && maxLen != 0 && !(maxLen == 1 && t.count[1] == 1) {
		return false // incomplete
	}
	var offs [maxCodeLen + 2]uint16
	for l := 1; l <= maxCodeLen; l++ {
		offs[l+1] = offs[l] + t.count[l]
	}
	for s, n := range lengths {
		if n != 0 {
			t.sorted[offs[n]] = syms[s]
			offs[n]++
		}
	}
	size := 1 << rootBits
	root := t.root[:size]
	for i := range root {
		root[i] = entSpecial
	}
	code, k := 0, 0
	for l := uint(1); l <= maxCodeLen; l++ {
		for c := t.count[l]; c > 0; c-- {
			rev := int(bits.Reverse16(uint16(code)) >> (16 - l))
			if l <= rootBits {
				e := t.sorted[k] | uint32(l)
				for i := rev; i < size; i += 1 << l {
					root[i] = e
				}
			} else {
				root[rev&(size-1)] = entSpecial | entLong
			}
			code++
			k++
		}
		code <<= 1
	}
	return true
}

// long decodes the code at the bottom of b, of which nb bits are input, by
// walking the code lengths; ok is false when nb bits do not finish a code.
func (t *huffTable) long(b uint64, nb uint) (e uint32, n uint, ok bool) {
	code, first, index := 0, 0, 0
	for l := uint(1); l <= maxCodeLen && l <= nb; l++ {
		code |= int(b>>(l-1)) & 1
		count := int(t.count[l])
		if code-first < count {
			return t.sorted[index+code-first] | uint32(l), l, true
		}
		index += count
		first = (first + count) << 1
		code <<= 1
	}
	return 0, 0, false
}

// Symbol entries of the three alphabets, and the fixed codes.
var (
	litSyms  [288]uint32
	distSyms [32]uint32
	clenSyms [19]uint32

	fixedLit, fixedDist huffTable
)

// codeOrder is the order of the code length code's lengths.
var codeOrder = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

func init() {
	for s := range litSyms {
		switch {
		case s < 256:
			litSyms[s] = uint32(s)<<valShift | entLit
		case s == 256:
			litSyms[s] = entEOB
		case s < 265:
			litSyms[s] = uint32(s-254) << valShift
		case s < 285:
			x := uint32(s-261) / 4
			litSyms[s] = uint32((4+(s-265)%4)<<x+3)<<valShift | x<<extraShift
		case s == 285:
			litSyms[s] = 258 << valShift
		default:
			litSyms[s] = entSpecial
		}
	}
	for s := range distSyms {
		switch {
		case s < 4:
			distSyms[s] = uint32(s+1) << valShift
		case s < numDist:
			x := uint32(s-2) / 2
			distSyms[s] = uint32((2+s%2)<<x+1)<<valShift | x<<extraShift
		default:
			distSyms[s] = entSpecial
		}
	}
	for s := range clenSyms {
		clenSyms[s] = uint32(s) << valShift
	}
	var lens [288]uint8
	for s := range lens {
		switch {
		case s < 144:
			lens[s] = 8
		case s < 256:
			lens[s] = 9
		case s < 280:
			lens[s] = 7
		default:
			lens[s] = 8
		}
	}
	fixedLit.build(lens[:], litSyms[:], litRoot)
	for s := range lens[:32] {
		lens[s] = 5
	}
	fixedDist.build(lens[:32], distSyms[:], distRoot)
}

// Where an inflater stands between calls.
const (
	stHeader  = iota // before the zlib header
	stBlock          // before a block header, or the trailer after the final block
	stStored         // inside a stored block
	stHuffman        // inside a Huffman block
	stDone           // past the Adler-32
)

// inflater decodes one zlib stream from src into dst.
type inflater struct {
	src   *StreamReader
	dst   []byte
	out   int    // bytes of dst written
	bits  uint64 // input bits not yet used, the next at the bottom
	nb    uint   // how many; bits above nb are zero or the input's next
	state uint8
	final bool // the current block is the last

	stored                 int // bytes left in the stored block
	copyLen, copyDist      int // the rest of a match cut off by the limit
	lit, dist              *huffTable
	adler                  uint32
	summed                 int // dst[:summed] is in adler
	dynLit, dynDist, clens huffTable
	lens                   [numLit + numDist]uint8
}

// decoders holds idle inflaters with their tables.
var decoders sync.Pool

func getInflater(src *StreamReader, dst []byte) *inflater {
	z, _ := decoders.Get().(*inflater)
	if z == nil {
		z = new(inflater)
	}
	z.src, z.dst, z.out, z.bits, z.nb, z.state, z.final = src, dst, 0, 0, 0, stHeader, false
	z.stored, z.copyLen, z.adler, z.summed = 0, 0, 1, 0
	return z
}

func putInflater(z *inflater) {
	z.src, z.dst = nil, nil
	decoders.Put(z)
}

// noEOF is the error of a stream its source ended in the middle of.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// more reads one byte into the bit buffer, waiting for it if need be.
func (z *inflater) more() error {
	r := z.src
	if r.pos >= len(r.win) {
		if err := r.wait(); err != nil {
			return noEOF(err)
		}
	}
	z.bits |= uint64(r.win[r.pos]) << z.nb
	r.pos++
	z.nb += 8
	return nil
}

// need makes sure the bit buffer holds at least n bits.
func (z *inflater) need(n uint) error {
	for z.nb < n {
		if err := z.more(); err != nil {
			return err
		}
	}
	return nil
}

// take removes and returns the next n bits, which the buffer holds.
func (z *inflater) take(n uint) uint32 {
	v := uint32(z.bits & (1<<n - 1))
	z.bits >>= n
	z.nb -= n
	return v
}

// align drops the bits up to the next byte boundary.
func (z *inflater) align() {
	z.bits >>= z.nb & 7
	z.nb &^= 7
}

// slowSym decodes a symbol of t whose code the root table cannot finish
// with the bits at hand: a long code, a code waiting for input, or no code
// at all.
func (z *inflater) slowSym(t *huffTable) (uint32, error) {
	for {
		e := t.root[z.bits&(1<<t.bits-1)]
		n := uint(e & entN)
		switch {
		case e&entLong != 0:
			if e, n, ok := t.long(z.bits, z.nb); ok {
				if e&entN == entSpecial {
					return 0, errDeflate
				}
				z.take(n)
				return e, nil
			}
			if z.nb >= maxCodeLen {
				return 0, errDeflate
			}
		case n != entSpecial:
			if n <= z.nb {
				z.take(n)
				return e, nil
			}
		case z.nb >= t.bits:
			return 0, errDeflate
		}
		if err := z.more(); err != nil {
			return 0, err
		}
	}
}

// run inflates until dst[:limit] is written, returning at once when it is.
// With end, limit is where the stream must end: run then goes on through
// block ends and the Adler-32, and any further output is an error.
func (z *inflater) run(limit int, end bool) error {
	err := z.step(limit, end)
	z.adler = adler32(z.adler, z.dst[z.summed:z.out])
	z.summed = z.out
	return err
}

func (z *inflater) step(limit int, end bool) error {
	for z.out < limit || end {
		switch z.state {
		case stHeader:
			if err := z.need(16); err != nil {
				return err
			}
			cmf, flg := z.take(8), z.take(8)
			if cmf&0x0f != 8 || cmf>>4 > 7 || (cmf<<8|flg)%31 != 0 {
				return errZlibHeader
			}
			// A preset dictionary is refused as compress/zlib refuses it
			// without one: unless it is the empty one, Adler-32 1.
			if flg&0x20 != 0 {
				if err := z.need(32); err != nil {
					return err
				}
				if bits.ReverseBytes32(z.take(32)) != 1 {
					return errZlibHeader
				}
			}
			z.state = stBlock
		case stBlock:
			if z.final {
				z.align()
				if err := z.need(32); err != nil {
					return err
				}
				z.adler = adler32(z.adler, z.dst[z.summed:z.out])
				z.summed = z.out
				if bits.ReverseBytes32(z.take(32)) != z.adler {
					return errAdler
				}
				z.state = stDone
				continue
			}
			if err := z.need(3); err != nil {
				return err
			}
			z.final = z.take(1) == 1
			switch z.take(2) {
			case 0:
				z.align()
				if err := z.need(32); err != nil {
					return err
				}
				n, nn := z.take(16), z.take(16)
				if n != nn^0xffff {
					return errDeflate
				}
				z.stored, z.state = int(n), stStored
			case 1:
				z.lit, z.dist, z.state = &fixedLit, &fixedDist, stHuffman
			case 2:
				if err := z.dynamic(); err != nil {
					return err
				}
				z.lit, z.dist, z.state = &z.dynLit, &z.dynDist, stHuffman
			default:
				return errDeflate
			}
		case stStored:
			if err := z.storedRun(limit, end); err != nil {
				return err
			}
		case stHuffman:
			if z.out == limit {
				// Only the block's end may follow.
				if z.copyLen > 0 {
					return errTooLong
				}
				e, err := z.slowSym(z.lit)
				if err != nil {
					return err
				}
				if e&entEOB == 0 {
					return errTooLong
				}
				z.state = stBlock
				continue
			}
			if err := z.huffman(limit); err != nil {
				return err
			}
		case stDone:
			if z.out < limit {
				return errTooShort
			}
			return nil
		}
	}
	return nil
}

// storedRun copies the stored block's bytes, those already in the bit
// buffer first, then straight from the window.
func (z *inflater) storedRun(limit int, end bool) error {
	for z.stored > 0 {
		if z.out == limit {
			if end {
				return errTooLong
			}
			return nil
		}
		if z.nb >= 8 {
			z.dst[z.out] = byte(z.take(8))
			z.out++
			z.stored--
			continue
		}
		r := z.src
		if r.pos >= len(r.win) {
			if err := r.wait(); err != nil {
				return noEOF(err)
			}
		}
		z.bits = 0 // what lay above nb is being copied now
		n := copy(z.dst[z.out:min(limit, z.out+z.stored)], r.win[r.pos:])
		r.pos += n
		z.out += n
		z.stored -= n
	}
	z.state = stBlock
	return nil
}

// dynamic reads a dynamic block's code definitions into dynLit and dynDist.
func (z *inflater) dynamic() error {
	if err := z.need(14); err != nil {
		return err
	}
	nlit := int(z.take(5)) + 257
	ndist := int(z.take(5)) + 1
	nclen := int(z.take(4)) + 4
	if nlit > numLit || ndist > numDist {
		return errDeflate
	}
	var cl [19]uint8
	for _, s := range codeOrder[:nclen] {
		if err := z.need(3); err != nil {
			return err
		}
		cl[s] = uint8(z.take(3))
	}
	if !z.clens.build(cl[:], clenSyms[:], clenRoot) {
		return errDeflate
	}
	lens := z.lens[:nlit+ndist]
	for i := 0; i < len(lens); {
		e, err := z.slowSym(&z.clens)
		if err != nil {
			return err
		}
		sym := e >> valShift
		if sym < 16 {
			lens[i] = uint8(sym)
			i++
			continue
		}
		var rep, nb uint32
		var v uint8
		switch sym {
		case 16:
			if i == 0 {
				return errDeflate
			}
			rep, nb, v = 3, 2, lens[i-1]
		case 17:
			rep, nb = 3, 3
		default:
			rep, nb = 11, 7
		}
		if err := z.need(uint(nb)); err != nil {
			return err
		}
		rep += z.take(uint(nb))
		if i+int(rep) > len(lens) {
			return errDeflate
		}
		for ; rep > 0; rep-- {
			lens[i] = v
			i++
		}
	}
	if !z.dynLit.build(lens[:nlit], litSyms[:], litRoot) || !z.dynDist.build(lens[nlit:], distSyms[:], distRoot) {
		return errDeflate
	}
	return nil
}

// huffman decodes the current Huffman block into dst until out reaches
// limit or the block ends. The bit buffer, the output position and the
// window live in locals here and go back to z around every call that may
// read more input.
func (z *inflater) huffman(limit int) error {
	dst := z.dst[:limit]
	full := z.dst
	if z.copyLen > 0 {
		end := min(z.out+z.copyLen, limit)
		z.copyLen -= end - z.out
		if z.out = copyMatch(full, z.out, end, z.copyDist); z.copyLen > 0 {
			return nil
		}
	}
	lit, dist := z.lit, z.dist
	r := z.src
	bitBuf, nb, out := z.bits, z.nb, z.out
	win, pos := r.win, r.pos
	for out < len(dst) {
		if nb < 48 {
			if pos+8 <= len(win) {
				bitBuf |= binary.LittleEndian.Uint64(win[pos:]) << nb
				pos += int(63-nb) >> 3
				nb |= 56
			} else {
				for nb <= 56 && pos < len(win) {
					bitBuf |= uint64(win[pos]) << nb
					pos++
					nb += 8
				}
			}
		}
		e := lit.root[bitBuf&(1<<litRoot-1)]
		if n := uint(e & entN); n <= nb {
			bitBuf >>= n
			nb -= n
		} else {
			z.bits, z.nb, z.out, r.pos = bitBuf, nb, out, pos
			var err error
			if e, err = z.slowSym(lit); err != nil {
				return err
			}
			bitBuf, nb, win, pos = z.bits, z.nb, r.win, r.pos
		}
		if e&entLit != 0 {
			dst[out] = byte(e >> valShift)
			out++
			continue
		}
		if e&entEOB != 0 {
			z.state = stBlock
			break
		}
		length := int(e >> valShift)
		if x := uint(e>>extraShift) & 15; x > 0 {
			if nb < x {
				z.bits, z.nb, z.out, r.pos = bitBuf, nb, out, pos
				if err := z.need(x); err != nil {
					return err
				}
				bitBuf, nb, win, pos = z.bits, z.nb, r.win, r.pos
			}
			length += int(bitBuf & (1<<x - 1))
			bitBuf >>= x
			nb -= x
		}
		e = dist.root[bitBuf&(1<<distRoot-1)]
		if n := uint(e & entN); n <= nb {
			bitBuf >>= n
			nb -= n
		} else {
			z.bits, z.nb, z.out, r.pos = bitBuf, nb, out, pos
			var err error
			if e, err = z.slowSym(dist); err != nil {
				return err
			}
			bitBuf, nb, win, pos = z.bits, z.nb, r.win, r.pos
		}
		d := int(e >> valShift)
		if x := uint(e>>extraShift) & 15; x > 0 {
			if nb < x {
				z.bits, z.nb, z.out, r.pos = bitBuf, nb, out, pos
				if err := z.need(x); err != nil {
					return err
				}
				bitBuf, nb, win, pos = z.bits, z.nb, r.win, r.pos
			}
			d += int(bitBuf & (1<<x - 1))
			bitBuf >>= x
			nb -= x
		}
		if d > out {
			z.bits, z.nb, z.out, r.pos = bitBuf, nb, out, pos
			return errDeflate
		}
		end := out + length
		if end > len(dst) {
			z.copyLen, z.copyDist = end-len(dst), d
			end = len(dst)
		}
		out = copyMatch(full, out, end, d)
	}
	z.bits, z.nb, z.out, r.pos = bitBuf, nb, out, pos
	return nil
}

// copyMatch writes the match at distance d into full[out:end] and returns
// end. It copies by words, the last step's overshoot past end landing on
// output not yet written: sixteen bytes a step from at least that far
// back; a match nearer than eight bytes first repeats at the first
// multiple of d that is not, once that many of its bytes are there, and
// one eight bytes back is the same word over and over. Within sixteen
// bytes of the end of full it goes by copies that double each time.
func copyMatch(full []byte, out, end, d int) int {
	if end+16 > len(full) {
		for src := out - d; out < end; {
			out += copy(full[out:end], full[src:out])
		}
		return end
	}
	if d < 8 {
		dd := (8 + d - 1) / d * d
		for stop := min(end, out+dd-d); out < stop; out++ {
			full[out] = full[out-d]
		}
		if out == end {
			return end
		}
		d = dd
	}
	switch {
	case d == 8:
		w := binary.LittleEndian.Uint64(full[out-8:])
		for ; out < end; out += 8 {
			binary.LittleEndian.PutUint64(full[out:], w)
		}
	case d >= 16:
		for ; out < end; out += 16 {
			a, b := binary.LittleEndian.Uint64(full[out-d:]), binary.LittleEndian.Uint64(full[out-d+8:])
			binary.LittleEndian.PutUint64(full[out:], a)
			binary.LittleEndian.PutUint64(full[out+8:], b)
		}
	default:
		for ; out < end; out += 8 {
			binary.LittleEndian.PutUint64(full[out:], binary.LittleEndian.Uint64(full[out-d:]))
		}
	}
	return end
}

// adler32 updates an Adler-32 with p, eight bytes a step. e and o sum the
// even and odd bytes of the words in 16-bit lanes, and pa and pb sum, in
// 32-bit lanes, what e+o held before each word: at the end of a run of m
// words the lanes give the run's byte sum, its bytes weighted by their
// distance from the run's end, and the sum of s1 before each word, which
// is all s1 and s2 need. A run is at most 128 words, so no lane carries.
func adler32(adler uint32, p []byte) uint32 {
	const (
		mod  = 65521
		lo16 = 0x00ff00ff00ff00ff
		lo32 = 0x0000ffff0000ffff
	)
	s1, s2 := uint64(adler&0xffff), uint64(adler>>16)
	for len(p) >= 8 {
		m := min(len(p)/8, 128)
		var e, o, pa, pb uint64
		for q := p[:m*8]; len(q) >= 8; q = q[8:] {
			w := binary.LittleEndian.Uint64(q)
			t := e + o
			pa += t & lo32
			pb += t >> 16 & lo32
			e += w & lo16
			o += w >> 8 & lo16
		}
		p = p[m*8:]
		var sum, weighted uint64
		for i := range 4 {
			a, b := e>>(16*i)&0xffff, o>>(16*i)&0xffff
			sum += a + b
			weighted += uint64(8-2*i)*a + uint64(7-2*i)*b
		}
		prev := pa&0xffffffff + pa>>32 + pb&0xffffffff + pb>>32
		s2 = (s2 + 8*uint64(m)*s1 + 8*prev + weighted) % mod
		s1 = (s1 + sum) % mod
	}
	for _, b := range p {
		s1 += uint64(b)
		s2 += s1
	}
	return uint32(s2%mod<<16 | s1%mod)
}

// unread returns the next input byte past the stream, io.EOF if the
// section ends where the stream does.
func (z *inflater) unread() (byte, error) {
	if z.nb >= 8 {
		return byte(z.bits), nil
	}
	return z.src.ReadByte()
}
