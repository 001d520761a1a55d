package pipeline

import (
	"testing"

	"github.com/expresso-verify/expresso/internal/config"
	"github.com/expresso-verify/expresso/internal/epvp"
	"github.com/expresso-verify/expresso/internal/properties"
	"github.com/expresso-verify/expresso/internal/route"
	"github.com/expresso-verify/expresso/internal/spf"
	"github.com/expresso-verify/expresso/internal/testnet"
	"github.com/expresso-verify/expresso/internal/topology"
)

// fuzzNet builds the topology of a testnet fixture, the network every
// fuzz input is decoded against.
func fuzzNet(f *testing.F, text string) *topology.Network {
	f.Helper()
	devices, err := config.ParseConfigs(text)
	if err != nil {
		f.Fatal(err)
	}
	net, err := topology.Build(devices)
	if err != nil {
		f.Fatal(err)
	}
	return net
}

// addCorpus seeds f with a valid blob, its truncations, and single-byte
// mutations spread over it.
func addCorpus(f *testing.F, blob []byte) {
	f.Add(blob)
	for _, n := range []int{0, 4, 5, len(blob) / 2, len(blob) - 1} {
		f.Add(append([]byte(nil), blob[:n]...))
	}
	for i := 0; i < len(blob); i += 7 {
		mut := append([]byte(nil), blob...)
		mut[i] ^= 0xFF
		f.Add(mut)
	}
}

// FuzzDecodeSPF feeds arbitrary bytes to the SPF artifact decoder. The
// contract: DecodeSPF returns an error or an artifact, never panics, and
// an accepted artifact re-encodes to a blob that decodes again. The seeds
// are the encoded testnet SPF artifact with truncations and byte flips;
// `go test` runs them, `go test -fuzz=FuzzDecodeSPF` explores.
func FuzzDecodeSPF(f *testing.F) {
	net := fuzzNet(f, testnet.Figure4)
	eng := epvp.New(net, epvp.FullMode())
	dp := spf.Run(eng, eng.Run())
	addCorpus(f, EncodeSPF(&SPFArtifact{Key: "k", Res: dp}, eng.Space.M))

	f.Fuzz(func(t *testing.T, data []byte) {
		eng := epvp.New(net, epvp.FullMode())
		art, err := DecodeSPF(eng, "k", data)
		if err != nil {
			return
		}
		if _, err := DecodeSPF(eng, "k", EncodeSPF(art, eng.Space.M)); err != nil {
			t.Fatalf("re-encoded SPF artifact does not decode: %v", err)
		}
	})
}

// FuzzDecodeAnalysis feeds arbitrary bytes to the analysis artifact
// decoder, at the routing stage's variable offset (0) and at a
// data-plane offset as the forwarding stage uses. The contract matches
// FuzzDecodeSPF's. The seeds are the encoded routing and black-hole
// violations of the data-center hijack fixture (Case1Blackhole) with
// truncations and byte flips.
func FuzzDecodeAnalysis(f *testing.F) {
	net := fuzzNet(f, testnet.Case1Blackhole)
	eng := epvp.New(net, epvp.FullMode())
	cp := eng.Run()
	dp := spf.Run(eng, cp)
	routing := append(properties.CheckRouteLeak(eng, cp), properties.CheckRouteHijack(eng, cp)...)
	forwarding := properties.CheckBlackHole(eng, dp, dp.DestPredicate(route.MustParsePrefix("10.1.0.0/16")))
	if len(routing) == 0 || len(forwarding) == 0 {
		f.Fatalf("seeds need violations: %d routing, %d forwarding", len(routing), len(forwarding))
	}
	addCorpus(f, EncodeAnalysis(&AnalysisArtifact{Violations: routing}, eng.Space.M, 0))
	addCorpus(f, EncodeAnalysis(&AnalysisArtifact{Violations: forwarding}, eng.Space.M, dp.VarBase()))

	f.Fuzz(func(t *testing.T, data []byte) {
		eng := epvp.New(net, epvp.FullMode())
		m := eng.Space.M
		for _, varBase := range []int{0, m.AddVars(33 * len(net.Externals))} {
			art, err := DecodeAnalysis(m, "k", varBase, data)
			if err != nil {
				continue
			}
			if _, err := DecodeAnalysis(m, "k", varBase, EncodeAnalysis(art, m, varBase)); err != nil {
				t.Fatalf("re-encoded analysis artifact does not decode at varBase %d: %v", varBase, err)
			}
		}
	})
}
