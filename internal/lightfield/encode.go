package lightfield

import (
	"bytes"
	"io"

	"lonviz/internal/codec"
)

// EncodeViewSet marshals and losslessly compresses a view set for network
// transfer or depot storage — the wire representation used throughout the
// streaming system. level is a codec compression level
// (codec.DefaultCompression when unsure).
func EncodeViewSet(vs *ViewSet, p Params, level int) ([]byte, error) {
	raw, err := vs.Marshal(p)
	if err != nil {
		return nil, err
	}
	return codec.Compress(raw, level)
}

// DecodeViewSet reverses EncodeViewSet, validating the checksum.
func DecodeViewSet(frame []byte, p Params) (*ViewSet, error) {
	return DecodeViewSetFrom(bytes.NewReader(frame), p)
}

// DecodeViewSetFrom is DecodeViewSet over an incrementally arriving
// frame: inflation proceeds as r delivers bytes, so a reader backed by an
// in-flight download overlaps decompression with communication. Inflated
// bytes go straight into the views (readViewSet), with no buffer of the
// whole payload in between; the view set is returned only once the codec
// reader has confirmed the frame's length, end and CRC-32.
func DecodeViewSetFrom(r io.Reader, p Params) (*ViewSet, error) {
	return DecodeViewSetInto(r, p, nil)
}

// DecodeViewSetInto is DecodeViewSetFrom into the images of old, when old
// (nil is allowed) is a view set an earlier decode under p filled, or
// half filled before it failed, and that nobody reads any more: a browsing
// client then allocates no pixels per move. A decode writes every stored
// pixel of every view and nothing else, so what old held is gone and its
// background is still the black NewViewSet gave it, with no clearing. After
// an error old holds a mix of both payloads and is good only for recycling
// again.
func DecodeViewSetInto(r io.Reader, p Params, old *ViewSet) (*ViewSet, error) {
	zr, err := codec.NewReader(r)
	if err != nil {
		return nil, err
	}
	defer zr.Close()
	vs, err := readViewSet(zr, zr.Len(), p, old)
	if err != nil {
		return nil, err
	}
	if err := zr.Close(); err != nil {
		return nil, err
	}
	return vs, nil
}
