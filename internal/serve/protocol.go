// The /v1/decode wire protocol: single JSON documents, strict decoding
// (unknown fields and trailing garbage rejected, frames bounded before
// any attacker-proportional allocation), mirroring the discipline the
// cluster campaign protocol established and locked with fuzz targets.
//
//	POST /v1/decode  DecodeRequest -> DecodeResponse | ErrorResponse
//	GET  /v1/schemes                -> SchemesResponse
//	GET  /metrics                   -> Prometheus text (obs registry)
//	GET  /healthz                   -> liveness + degraded scheme list
//
// Entries travel as hex: 72 hex characters encode one 36-byte (288-bit)
// wire entry, most significant byte first within each beat-ordered
// byte; decoded payloads come back as 64 hex characters (32 bytes).

package serve

import (
	"encoding/hex"
	"errors"
	"fmt"

	"hbm2ecc/internal/bitvec"
	"hbm2ecc/internal/core"
	"hbm2ecc/internal/ecc"
	"hbm2ecc/internal/httpx"
)

// Wire-protocol bounds.
const (
	// ProtocolVersion is echoed by /v1/schemes; clients refuse to drive
	// a server speaking a different version.
	ProtocolVersion = 1
	// MaxFrame bounds any single request or response frame.
	MaxFrame = 1 << 20
	// MaxRequestEntries bounds the entries in one decode request.
	MaxRequestEntries = 512
	// MaxSchemeName bounds the scheme label length.
	MaxSchemeName = 64
	// entryHexLen is the hex length of one 36-byte wire entry.
	entryHexLen = 2 * bitvec.EntryBytes
	// dataHexLen is the hex length of one 32-byte payload.
	dataHexLen = 2 * bitvec.DataBytes
)

// Status strings used on the wire.
const (
	StatusOK        = "ok"
	StatusCorrected = "corrected"
	StatusDetected  = "detected"
)

// DecodeRequest is one decode call: a scheme label and 1..MaxRequestEntries
// received wire entries (a single-entry request is just a batch of one).
type DecodeRequest struct {
	// Scheme is a Table-2 row label resolvable by core.SchemeByName.
	Scheme string `json:"scheme"`
	// Entries are hex-encoded 36-byte received wire entries.
	Entries []string `json:"entries"`
}

// Validate checks wire bounds and hex shape (not scheme existence — the
// service answers that with its own error so /v1/schemes and /v1/decode
// stay consistent about what is served).
func (r *DecodeRequest) Validate() error {
	if r.Scheme == "" {
		return errors.New("serve: empty scheme")
	}
	if len(r.Scheme) > MaxSchemeName {
		return fmt.Errorf("serve: scheme label longer than %d bytes", MaxSchemeName)
	}
	if len(r.Entries) == 0 {
		return errors.New("serve: no entries")
	}
	if len(r.Entries) > MaxRequestEntries {
		return fmt.Errorf("serve: %d entries in one request (max %d)", len(r.Entries), MaxRequestEntries)
	}
	for i, e := range r.Entries {
		if len(e) != entryHexLen {
			return fmt.Errorf("serve: entry %d is %d hex chars, want %d", i, len(e), entryHexLen)
		}
		if !isHex(e) {
			return fmt.Errorf("serve: entry %d is not hex", i)
		}
	}
	return nil
}

// ParseEntries decodes the request's entries into wire vectors.
func (r *DecodeRequest) ParseEntries() ([]bitvec.V288, error) {
	out := make([]bitvec.V288, len(r.Entries))
	for i, e := range r.Entries {
		v, err := ParseEntry(e)
		if err != nil {
			return nil, fmt.Errorf("serve: entry %d: %w", i, err)
		}
		out[i] = v
	}
	return out, nil
}

// EntryResult is the decode outcome of one entry.
type EntryResult struct {
	// Status is "ok", "corrected", or "detected".
	Status string `json:"status"`
	// Data is the hex-encoded 32-byte decoded payload; omitted when the
	// entry was detected-uncorrectable (the payload is not trustworthy).
	Data string `json:"data,omitempty"`
	// CorrectedBits counts wire bits flipped by correction.
	CorrectedBits int `json:"corrected_bits,omitempty"`
}

// DecodeResponse answers a decode request, one result per entry in
// request order.
type DecodeResponse struct {
	Scheme string `json:"scheme"`
	// Degraded marks a detect-only answer from a degraded scheme.
	Degraded bool `json:"degraded,omitempty"`
	// BatchEntries is the size of the micro-batch that served this
	// request (observability aid; >= len(Results) under coalescing).
	BatchEntries int           `json:"batch_entries,omitempty"`
	Results      []EntryResult `json:"results"`
}

// Validate checks a decode response (client side) against wire bounds.
func (r *DecodeResponse) Validate() error {
	if r.Scheme == "" || len(r.Scheme) > MaxSchemeName {
		return errors.New("serve: response has invalid scheme label")
	}
	if len(r.Results) == 0 {
		return errors.New("serve: response has no results")
	}
	if len(r.Results) > MaxRequestEntries {
		return fmt.Errorf("serve: %d results in one response (max %d)", len(r.Results), MaxRequestEntries)
	}
	if r.BatchEntries < 0 {
		return errors.New("serve: negative batch size")
	}
	for i := range r.Results {
		res := &r.Results[i]
		switch res.Status {
		case StatusOK, StatusCorrected, StatusDetected:
		default:
			return fmt.Errorf("serve: result %d has status %q", i, res.Status)
		}
		if res.Status == StatusDetected {
			if res.Data != "" {
				return fmt.Errorf("serve: result %d is detected but carries data", i)
			}
		} else if len(res.Data) != dataHexLen || !isHex(res.Data) {
			return fmt.Errorf("serve: result %d data is not %d hex chars", i, dataHexLen)
		}
		if res.CorrectedBits < 0 || res.CorrectedBits > bitvec.EntryBits {
			return fmt.Errorf("serve: result %d corrected_bits %d out of range", i, res.CorrectedBits)
		}
	}
	return nil
}

// ErrorResponse is the JSON body of every non-2xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
	// Shed marks a load-shedding 503: the request was healthy but the
	// server chose not to serve it; retry after RetryAfterMS.
	Shed         bool   `json:"shed,omitempty"`
	Reason       string `json:"reason,omitempty"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

// SchemesResponse lists the served schemes (GET /v1/schemes).
type SchemesResponse struct {
	Version int            `json:"version"`
	Schemes []SchemeStatus `json:"schemes"`
}

// Validate checks a schemes response (client side).
func (r *SchemesResponse) Validate() error {
	if r.Version != ProtocolVersion {
		return fmt.Errorf("serve: protocol version %d, want %d", r.Version, ProtocolVersion)
	}
	if len(r.Schemes) == 0 {
		return errors.New("serve: server lists no schemes")
	}
	for i := range r.Schemes {
		s := &r.Schemes[i]
		if s.Name == "" || len(s.Name) > MaxSchemeName {
			return fmt.Errorf("serve: scheme %d has invalid name", i)
		}
	}
	return nil
}

// FormatEntry hex-encodes one wire entry for the wire.
func FormatEntry(v bitvec.V288) string {
	var raw [bitvec.EntryBytes]byte
	for i := range raw {
		raw[i] = v.Byte(i)
	}
	return hex.EncodeToString(raw[:])
}

// ParseEntry decodes one hex wire entry.
func ParseEntry(s string) (bitvec.V288, error) {
	if len(s) != entryHexLen {
		return bitvec.V288{}, fmt.Errorf("entry is %d hex chars, want %d", len(s), entryHexLen)
	}
	raw, err := hex.DecodeString(s)
	if err != nil {
		return bitvec.V288{}, err
	}
	var v bitvec.V288
	for i, b := range raw {
		v = v.SetByte(i, b)
	}
	return v, nil
}

// FormatData hex-encodes a decoded payload.
func FormatData(d [bitvec.DataBytes]byte) string { return hex.EncodeToString(d[:]) }

// EntryResultOf renders one core decode outcome onto the wire, using
// scheme to extract the payload from the corrected wire image.
func EntryResultOf(scheme core.Scheme, wr core.WireResult) EntryResult {
	switch wr.Status {
	case ecc.Detected:
		return EntryResult{Status: StatusDetected}
	case ecc.Corrected:
		return EntryResult{
			Status:        StatusCorrected,
			Data:          FormatData(scheme.ExtractData(wr.Wire)),
			CorrectedBits: wr.CorrectedBits,
		}
	default:
		return EntryResult{Status: StatusOK, Data: FormatData(scheme.ExtractData(wr.Wire))}
	}
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') && (c < 'A' || c > 'F') {
			return false
		}
	}
	return true
}

// decodeStrict unmarshals exactly one JSON document under the MaxFrame
// bound, rejecting unknown fields and trailing garbage — the shared
// front door for every frame, locked by the codec fuzz targets.
func decodeStrict(data []byte, v any) error {
	return httpx.DecodeStrict("serve", data, v, MaxFrame)
}

// DecodeDecodeRequest decodes and validates a decode request frame.
func DecodeDecodeRequest(data []byte) (DecodeRequest, error) {
	var r DecodeRequest
	if err := decodeStrict(data, &r); err != nil {
		return DecodeRequest{}, err
	}
	if err := r.Validate(); err != nil {
		return DecodeRequest{}, err
	}
	return r, nil
}

// DecodeDecodeResponse decodes and validates a decode response frame
// (client side).
func DecodeDecodeResponse(data []byte) (DecodeResponse, error) {
	var r DecodeResponse
	if err := decodeStrict(data, &r); err != nil {
		return DecodeResponse{}, err
	}
	if err := r.Validate(); err != nil {
		return DecodeResponse{}, err
	}
	return r, nil
}

// DecodeSchemesResponse decodes and validates a schemes response frame
// (client side).
func DecodeSchemesResponse(data []byte) (SchemesResponse, error) {
	var r SchemesResponse
	if err := decodeStrict(data, &r); err != nil {
		return SchemesResponse{}, err
	}
	if err := r.Validate(); err != nil {
		return SchemesResponse{}, err
	}
	return r, nil
}
