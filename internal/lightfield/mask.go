package lightfield

import "sync"

// viewMask is the occlusion mask of one Params value with the two forms
// the view-set codec reads it in: runs of consecutive stored pixels, as
// byte ranges of an image's Pix, and their total.
type viewMask struct {
	bits   *Bitmask
	runs   []pixRun
	stored int // bytes one view contributes to a marshalled view set
}

// pixRun is Pix[off : off+n] of a sample view, a maximal run of stored
// pixels in scan order (87 runs at res 100: about one per scanline).
type pixRun struct{ off, n int }

// maskCacheT memoizes occlusion masks per Params value. Params is a
// comparable struct, so it keys a map directly.
type maskCacheT struct {
	mu sync.Mutex
	m  map[Params]*viewMask
}

var maskCache = &maskCacheT{m: make(map[Params]*viewMask)}

func (c *maskCacheT) get(p Params) (*viewMask, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if m, ok := c.m[p]; ok {
		return m, nil
	}
	bits, err := computeMask(p)
	if err != nil {
		return nil, err
	}
	m := &viewMask{bits: bits}
	for idx := 0; idx < bits.Len(); idx++ {
		if !bits.Get(idx) {
			continue
		}
		if k := len(m.runs) - 1; k >= 0 && m.runs[k].off+m.runs[k].n == 3*idx {
			m.runs[k].n += 3
		} else {
			m.runs = append(m.runs, pixRun{off: 3 * idx, n: 3})
		}
		m.stored += 3
	}
	c.m[p] = m
	return m, nil
}
