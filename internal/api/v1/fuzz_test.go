package v1

import (
	"bytes"
	"testing"
)

// FuzzDecodeRequest hammers the strict request decoder with arbitrary
// bodies, decoded as each of the four request types in turn. Two
// properties must hold on every input:
//
//  1. DecodeStrict never panics.
//  2. Canonical round trip: when DecodeStrict accepts a body, its
//     canonical encoding decodes again, and re-encoding that value
//     gives the same bytes. The service keys its cache by canonical
//     forms, so an encoding that drifted across a round trip would
//     split one request across cache entries.
func FuzzDecodeRequest(f *testing.F) {
	for _, body := range []string{
		`{"trace":{"workload":"gcc-like"},"specs":["gshare:16"],"bucketsize":100}`,
		`{"trace":{"workload":"gcc-like"},"specs":["gshare:16"]}{"more":1}`,
		`{"specs":[]}` + "\n",
		`{"trace":{"workload":"gcc-like","n":1000},"specs":["gshare:16","bimodal:12"],"bucket_size":100,"per_branch":true}` + "\n",
		`{"trace":{"key":"k"},"grid":{"family":"hybrid","hist":[8,12],"bimodal_bits":10,"chooser_bits":10}}`,
		`{"trace":{"workload":"go","n":2000},"stage":"profile","window_len":16,"top_k":8,"max_candidates":64,"schemes":["occ","back"]}`,
		`{"trace":{"workload":"perl"},"if_pas_history_bits":12,"high_bias":0.95}`,
		``,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		roundTrip[SimulateRequest](t, body)
		roundTrip[SweepRequest](t, body)
		roundTrip[OracleRequest](t, body)
		roundTrip[ClassifyRequest](t, body)
	})
}

// roundTrip decodes body as a T and, if the decoder accepts it, checks
// that the canonical encoding is a fixed point of decode-then-encode.
func roundTrip[T any](t *testing.T, body []byte) {
	var req T
	if err := DecodeStrict(bytes.NewReader(body), &req); err != nil {
		return
	}
	canon, err := Marshal(req)
	if err != nil {
		t.Fatalf("%T: accepted body %q does not marshal: %v", req, body, err)
	}
	var again T
	if err := DecodeStrict(bytes.NewReader(canon), &again); err != nil {
		t.Fatalf("%T: canonical encoding %q of body %q rejected: %v", req, canon, body, err)
	}
	b, err := Marshal(again)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, canon) {
		t.Fatalf("%T: round trip of body %q changed the encoding:\n got  %q\n want %q", req, body, b, canon)
	}
}
