package bench

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
)

// figureDigests pins every experiment but Fig 3 as SHA-256 digests:
// "<id>/jobs/<scale>" is the ordered job list (one %+v line per job) at
// tiny, Quick() and Full() scale; "<id>/text", "<id>/json" and "<id>/csv"
// are the figure's Format() and its one-experiment report at tiny scale.
// A change that moves, drops, reorders or re-labels a job, a point, a
// series or a breakdown row changes at least one entry.
var figureDigests = map[string]string{
	"10/csv":                    "a45263a36e5980c2abf17b55e3f068cda8d8ff86d8f5bf2b3f7d185e745f2607",
	"10/jobs/full":              "8c01a2f4834c5bcf458985c42beae9dbf51939c97dbd81c73d477dd8d7f4709b",
	"10/jobs/quick":             "db8a0cb78c3bc77bfa7315e9084a0cb92da87b4060490410bde18f8fc0ad5905",
	"10/jobs/tiny":              "88bc8fe5052f72052675629f7d7785c11fc914f431dae1c21138cf974065967e",
	"10/json":                   "696785660d41fc849dbbcd3a5cf120a7d241e6cedbc5091df3645ca96d4fadfd",
	"10/text":                   "3b400c7b71140cfcfa747b1654d065d05943d3a513b2b42efeb936c6dc197669",
	"11/csv":                    "9780dea0f724cdf77264588c56501fed0a99fb97e6bb97d9248a0892eba81a06",
	"11/jobs/full":              "a6705ff368871b82b8588a17e9d0f73c32d15df5d8b7210c2a075f82ec5ec4d7",
	"11/jobs/quick":             "6840c2e7491d30ca20c65d453d52384fee88aae6efb52ba51966a36b6293688c",
	"11/jobs/tiny":              "4cf4006ceb3fecc21043e263ed7f347628870ec4611d603bf52bd25facdcb5e0",
	"11/json":                   "1f9b284026242a42fdbb1ebe472fb159d9396673f3e7494e7f61d828e0c59b5d",
	"11/text":                   "a3dccac4de55d049a0e047cbf0bcd5332e9ed889a0a54db829acf9a67d00e941",
	"12/csv":                    "4e5e48f06a1615c89cc3ddec2de116cd0122948263cb0c197aad1bdcc974c224",
	"12/jobs/full":              "9c11a617c46b0723a2400a73df6a3bdbf1fd5180beb66f7421a5101f94dceeaa",
	"12/jobs/quick":             "2feb86f92588d470f2d627d1b35be20fcb8786b0910f4f6720ac29168a1d3a7f",
	"12/jobs/tiny":              "9d427104e0a3cf58546278dee7a173bd05521177f766267899db3adeb3374c4d",
	"12/json":                   "c9bc8954a4a6e002bdd9819a8edcca7159695d4572c46853f1ab615a27a65691",
	"12/text":                   "51a76598005b98c3ac14f75ec85ca0bfd7f49a09af981fece6656f3bc8a95ec1",
	"13/csv":                    "d0f730a06dd4da16c13cfe7a984c6f5fa7b61fe682580a6a93f9c0257a023651",
	"13/jobs/full":              "c33fd30315b2713dd1d2e37bd7264b82230275ef5af14e551f622d2bd89966a9",
	"13/jobs/quick":             "2ef9658466816107132ac10b12d703cd90294879fb5305512b36f5e2e91c793e",
	"13/jobs/tiny":              "280fac145f802c7743dd908f36210749f20e56616ff9e0e2b18c0f93ff8a1a66",
	"13/json":                   "a2b67098641dbda2e4566308cd9862bffe9ad33ddf1caddcb370d3001da63f47",
	"13/text":                   "5aa7dd30a31b5c561097083835dda2b1abc53fc73938bd621d0c78a1180ec7f5",
	"14/csv":                    "dbfa2e251d40c5f7f72b8e0fb9643536cd58ea05dad43d748112583f7c50ce60",
	"14/jobs/full":              "b0fa071f82253002bd64285109b1202c4616c2c3cbd566637c211636755cddc9",
	"14/jobs/quick":             "98f5c544bad4e52cc565e4eaddc911ddd893634d7960aa1bc794bbf25b41f8a0",
	"14/jobs/tiny":              "5ab3832e56876591664a96b6b9a7964b269101ed268d12bc54d22faab985e496",
	"14/json":                   "0c24057ee10aef75913e4afcdd05cc740e0588720761e7943e3d8412ec0b4029",
	"14/text":                   "8a04e4122ec517101b8b52434d5bb3b776605ba6a78cd3b62d094d89dbad62d8",
	"15/csv":                    "e407641bd5cbab06884fb471fbbdc5437c93990d863e8be91f73351813bdda2d",
	"15/jobs/full":              "ea8978d00cb6156f160e64bf631b3b4d9bafb82c8deaf2ab179376247b115e12",
	"15/jobs/quick":             "8e5a5e4469990dca94e492319c540b1f130b37de254a5862fbd93503d58b1ac8",
	"15/jobs/tiny":              "0ae5b78101098f0ac13128270bd2e9e4576134a86f04fffebfebada30dc517a3",
	"15/json":                   "5b250aa7dc33de5dabce2870544fd97ee359fdf0d0cec4012d02b05c0cc809d3",
	"15/text":                   "1adc68c2e921108e5f9a53d5f1a6e4be212e172fe0eec7f4a6f14492e1e69150",
	"16/csv":                    "395b055d3f66beb780fff34d5b9c881c055b02ecf9872783970757b98ee32164",
	"16/jobs/full":              "a55d949d55252038405069743db2b0b261cabc5e73089500b58ede34d4dd4b22",
	"16/jobs/quick":             "d6bf62e2418c95a0bc7ec129f190be961a8e0174f5a9f4775ef99504c8e9d58a",
	"16/jobs/tiny":              "000b1d2758b8cc1871d42dbfcafc6b285f5b392f8950aceb67723cac32d8485e",
	"16/json":                   "6f82b7507d7558eb1c1b2b8fc4519578b016e20ffc80f454898333d65e39059b",
	"16/text":                   "1e9cb9994d50925a893bb4804fd8a7394d287759dda52c380615391904d2edd3",
	"17/csv":                    "3fec2110d1fb989a62c2e3ee585e1b7457e49c45cf5dfd397b8fd7cb341f1022",
	"17/jobs/full":              "1aa2ef391b7f9f227eab7c39310168891569d50bf57af612a3cdbfebc461638d",
	"17/jobs/quick":             "b2427a516e456f8c0802fb5b5e5ffe837bd9083cd6d2ad509193344b7092efa1",
	"17/jobs/tiny":              "44806349696b97e90845e403834fb41c0ecb8c98a847039a2564edcc73d28632",
	"17/json":                   "8612ca98e01372e39d23fbad4fe7c16d8a2c1ad2ce86cf4e9873f181615152c5",
	"17/text":                   "c68e2a4836c50c69a5bbad4c5561f8de4c52821d32098509d78cabd396417803",
	"4/csv":                     "bac3a12420f5cef2e1638965e9d06d9c2e26572a85b97d833996f2daf4acbc60",
	"4/jobs/full":               "a107ababa0db258ace99a28e891cbda9baa311746ed51d1e606f4cf4acbcf516",
	"4/jobs/quick":              "091cfc62f510c938ff346c74c560041bc8fa79818c2d0ff0e0efc7f0987c1adb",
	"4/jobs/tiny":               "9051eea9748cce2091a34e0c40ff81e66050a493f293813e361d042681937def",
	"4/json":                    "16d9e2cdc7e23ffde8957777b1fed2b1711bdca2f2dbb6fe851e72268a499700",
	"4/text":                    "981ddc72eabf6b18c76a4ded67bbadd190e308a2cf6d4e8957fb5603f081adf6",
	"5/csv":                     "8e976c14636355e499cda7aeaa1957171894110543a48816ad4c91b7b8edc108",
	"5/jobs/full":               "c28be073b0572886c6f7fc3dccd605fd6b9526850f2e08eb99945b2239eeb3d0",
	"5/jobs/quick":              "93964360b3694312cb5dbe91cba67b89706266397bf12c20652ecf57572d9352",
	"5/jobs/tiny":               "9517de7da416c5ff212748dd0c7ce965bf9792d21b2d7b9d3309031b520f305b",
	"5/json":                    "23077e0c16f31c6939ef3853be6a3c9c0b1da4d1af9adf9267aec7f4219d7875",
	"5/text":                    "47b81bea977c0f0a2b95417eed0f14ef5bbc87b5f04510bc9dc8aea9719aa54f",
	"6/csv":                     "9a134c6e330dc43a30d2c1f1494155cb768bc2ac2341284247293fd9020bb685",
	"6/jobs/full":               "b09dc685517b5f67dfa29ad4598a6c104e819509612ed4e2afbe74b969e9fc6d",
	"6/jobs/quick":              "46d09ef7969be8092bc15c6594b3b7fd3aae7dee169ec52719fdbd9a9d2a3b9f",
	"6/jobs/tiny":               "ed7c69e86e667449b99f09415fc15c5f51340ed6371ea7a59046a884c12f6114",
	"6/json":                    "dfe122652a5c4516284fa751da5324ff3a82e5cba9ac8f45860641c4e05d17fe",
	"6/text":                    "0fa005b353821c3982823274140e1585ddf95535f4f35b47b38f3d0c942f3909",
	"7/csv":                     "db70057780808d1547fa20583bc7cb528746d679ac062b3f5cd3dfd64db1a697",
	"7/jobs/full":               "7a2129e30c2997c395b74cb2cbc7cdd0eaccc421d426086ecc0d78b539d4eebf",
	"7/jobs/quick":              "5f23b19fcfa4a316f254116adf76b6832a08977ecc76f922e7ca6fd423336a93",
	"7/jobs/tiny":               "4046a8899ff1f2eb50ca8bf808f15b7ef7758c588e7b0ea6cf784860a6d25c2c",
	"7/json":                    "b5901c9ecabef50c2c673451ceabd589c7fa5db20bd1bddacf604114f98d3852",
	"7/text":                    "19616157d02bcf00518dbf46b2ab744819d6ca2f9bfa9a891cb61fb29c930ba5",
	"8/csv":                     "fc30d595a7eeadc34999073e7f3903c3dce1ad447688b64fec361dee8cf7fd84",
	"8/jobs/full":               "006ffdc377233d139b9542415e474fbefc01a89b5beaeaa3a36f19befb03f36d",
	"8/jobs/quick":              "853ecd34ed618b3aaf2d979132c89a193d53868f2f50ddac72c5826e35080428",
	"8/jobs/tiny":               "22e5e3bbd7f046e786e05e50fa188d9ef26082d4a31d2edf8af7e191b2c19a20",
	"8/json":                    "93e04a50fa446358f314665b3f9117706a71b75a164142e74b9e256111a0529f",
	"8/text":                    "5d46c8d9da07cd3ca2d287579b0ad89288bf5f411aadf8f074885c0e31aa3cbd",
	"9/csv":                     "66680ebb20ebc29fc3fe32b33316afa0ee05f74ce07b265c48021969a149e2dc",
	"9/jobs/full":               "c5ea5c29800d6f65cffd5a9e1730c7f10076bf7b70640ba8520bed23edfcefb9",
	"9/jobs/quick":              "f387561db31461024b53b3241b58a7ee39bc716add112e13ea144e50dc4a62cd",
	"9/jobs/tiny":               "ffc7732bf57e245a1f325aba8f5c31a0ebd7036e0369bb3133058c09fadec1b4",
	"9/json":                    "3088e41f4df608c6c765d1d820ced7d5befb55e5306afb2c4ad5c1768aaa499a",
	"9/text":                    "5a9cbd73a25c4f1b296be55b11425cd2a2d1699f50482b192fbf79f336531f4e",
	"adaptive/csv":              "38c74e99d2ba76f0c4e3666092d9ea6f56f4bb3c78998004bb84082faba00e57",
	"adaptive/jobs/full":        "bd015cc9dca798d59b8e8285783de8425642dc47cbd8d414678e3229f8234ca3",
	"adaptive/jobs/quick":       "da843b3519d56783601d924c0be25e071f965cf980c7e0d459ba244a84683836",
	"adaptive/jobs/tiny":        "77a6c2b39659965490986a56a44a1c37ff7b0171041dcb77b59ffdc09db63d72",
	"adaptive/json":             "cc1d0506e5e4cb4bf121eaab86f55bf1113e51fddf8f513e11a349043cae7f05",
	"adaptive/text":             "a5f46c33115863fc9e42fd090d3063b6f9b15f1c05b33ea77c1054d05b29ad68",
	"knee/csv":                  "f2aa1d9f9be112550c74a5acb9d1e629e2829d0fd212cedff5cda373432840db",
	"knee/jobs/full":            "8149534c2acf7fe4c5069e099c3575a824bcbe480707121f492a3eb1360aa3b5",
	"knee/jobs/quick":           "04c6aefcba83ad3d227561a0e357d80515609b192ceaf65e5b7af1c0211fc388",
	"knee/jobs/tiny":            "51e223545f0e43fdf092c5aac1c63c435f7aef3c84dada8a4dcc8243babac13a",
	"knee/json":                 "c7257a17a74ff9f85b15dcdac8c9c72217c272d8157fd2cf1c1bb4351eecc427",
	"knee/text":                 "9467b938ce832b40c25b179002daa5aeddbb7b738fcecb89e70efe0f0c36a617",
	"malloc/csv":                "facb29237a35903b29fefee08f26928a312924610dc3daf0dbb05d81a75ab466",
	"malloc/jobs/full":          "167eea2b4ebe8e77d38576385bdf00821a97778e1847fc72cedbfcea0b6e4379",
	"malloc/jobs/quick":         "de9beb5e79e949d5953121ec001ab11a7cd876d53e653c4c3fb073db2d9e65d0",
	"malloc/jobs/tiny":          "d29053fb8ca2c47280562064b3972553dc14246d51089c424543650abb6e3701",
	"malloc/json":               "c68648954bd78f3624aadc2ac86a20e72a0cc90a0c24c797becd840a06517c84",
	"malloc/text":               "8e049306e5157d180f7721e81d7157e2d1484eb4759fe7aec6b907918845f13b",
	"occ-validation/csv":        "7d502b7551702568fa4956504590422ec7916da36dad1a14e2ff4fa3e00c86b6",
	"occ-validation/jobs/full":  "ce608e314b3b3bbb9b5458a844581233280fc892c4f2e4e67871153b1b62f43a",
	"occ-validation/jobs/quick": "90fec78b7c64f234b7331716d8b7deca2d583d8f2486fc27f127e42be8c8fc41",
	"occ-validation/jobs/tiny":  "389289799b4ae019e61f7a8a4516b29d81c8d6cd7be834bcf9b6e4693d4b53b6",
	"occ-validation/json":       "4951dd06eb21be63c52b9504c938a132757d4c430ac9bfa050e371145fe8f277",
	"occ-validation/text":       "048554c44deb2803de3f043783afa4c6d0caefa073463b55c7477afb9ca40d80",
}

// TestFigureDigests is the net under the figure definitions: see
// figureDigests. Fig 3 is left out because its native ladder follows
// GOMAXPROCS and its notes follow NumCPU; TestFig3Structure covers it.
func TestFigureDigests(t *testing.T) {
	scales := []struct {
		name string
		p    Params
	}{
		{"tiny", tinyParams()},
		{"quick", Quick()},
		{"full", Full()},
	}
	var es []Experiment
	for _, e := range Registry {
		if e.ID != "3" {
			es = append(es, e)
		}
	}
	got := map[string]string{}
	for _, e := range es {
		for _, sc := range scales {
			var b strings.Builder
			for _, j := range e.Jobs(sc.p) {
				fmt.Fprintf(&b, "%+v\n", j)
			}
			got[e.ID+"/jobs/"+sc.name] = digest([]byte(b.String()))
		}
	}
	if !testing.Short() {
		p := tinyParams()
		meta := RunMeta{Paper: "test", Scale: "tiny", Params: p}
		for i, fig := range BuildAll(es, p, &Runner{}) {
			id := es[i].ID
			rep := NewReport(meta, es[i:i+1], []*Figure{fig})
			js, err := rep.JSON()
			if err != nil {
				t.Fatal(err)
			}
			got[id+"/text"] = digest([]byte(fig.Format()))
			got[id+"/json"] = digest(js)
			got[id+"/csv"] = digest([]byte(rep.CSV()))
		}
	}

	var bad []string
	for key, d := range got {
		if figureDigests[key] != d {
			bad = append(bad, key)
		}
	}
	if len(bad) == 0 {
		return
	}
	sort.Strings(bad)
	t.Errorf("%d digests differ: %s", len(bad), strings.Join(bad, ", "))
	keys := make([]string, 0, len(got))
	for key := range got {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, key := range keys {
		fmt.Fprintf(&b, "\t%q: %q,\n", key, got[key])
	}
	t.Logf("digests computed now:\n%s", b.String())
}

func digest(b []byte) string {
	return fmt.Sprintf("%x", sha256.Sum256(b))
}

// TestFig3Structure checks what Fig 3 promises without a digest: each
// scheme's sim: and native: series share their x-values, and the two
// sides run the same YCSB config at the same core counts.
func TestFig3Structure(t *testing.T) {
	e, err := Lookup("3")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Params{tinyParams(), Quick(), Full()} {
		// A stop raised before the build dispatches no job: the figure
		// comes back with every point's layout and zero results.
		var stop atomic.Bool
		stop.Store(true)
		fig := e.Build(p, &Runner{Stop: &stop})
		xs := map[string][]float64{}
		for _, s := range fig.Series {
			for _, pt := range s.Points {
				xs[s.Name] = append(xs[s.Name], pt.X)
			}
		}
		sim := map[string][]Job{}
		native := map[string][]Job{}
		for _, j := range e.Jobs(p) {
			switch j.Kind {
			case JobYCSB:
				sim[j.Scheme] = append(sim[j.Scheme], j)
			case JobNativeYCSB:
				native[j.Scheme] = append(native[j.Scheme], j)
			default:
				t.Errorf("Fig 3 enumerated a job of kind %d", j.Kind)
			}
		}
		if len(fig.Series) != 2*len(SchemeNames) {
			t.Fatalf("Fig 3 has %d series, want %d", len(fig.Series), 2*len(SchemeNames))
		}
		for _, name := range SchemeNames {
			sx, nx := xs["sim:"+name], xs["native:"+name]
			if len(sx) == 0 || !reflect.DeepEqual(sx, nx) {
				t.Errorf("%s: sim x-values %v, native x-values %v", name, sx, nx)
			}
			sj, nj := sim[name], native[name]
			if len(sj) != len(sx) || len(nj) != len(sx) {
				t.Fatalf("%s: %d sim and %d native jobs for %d points", name, len(sj), len(nj), len(sx))
			}
			for i := range sj {
				if sj[i].Cores != nj[i].Cores || float64(sj[i].Cores) != sx[i] || sj[i].YCSB != nj[i].YCSB {
					t.Errorf("%s point %d: sim job %d cores %+v, native job %d cores %+v, x %v",
						name, i, sj[i].Cores, sj[i].YCSB, nj[i].Cores, nj[i].YCSB, sx[i])
				}
			}
		}
	}
}

// TestBreakdownPerScheme pins that each figure with a "(b)" table carries
// exactly one, with one row per tuple-level scheme, at every scale — also
// where the breakdown's core count is not a rung of the ladder (Fig 9 at
// 512 cores under Full()). It lays the specs out and runs nothing.
func TestBreakdownPerScheme(t *testing.T) {
	for _, p := range []Params{tinyParams(), Quick(), Full()} {
		for _, id := range []string{"8", "9", "10", "12"} {
			e, err := Lookup(id)
			if err != nil {
				t.Fatal(err)
			}
			s := e.layout(p)
			if len(s.breakdowns) != 1 {
				t.Errorf("Fig %s at %d max cores has %d breakdowns, want 1", id, p.MaxCores, len(s.breakdowns))
				continue
			}
			bd := s.breakdowns[0]
			if !reflect.DeepEqual(bd.schemes, SchemeNames) || len(bd.jobs) != len(SchemeNames) {
				t.Errorf("Fig %s at %d max cores: breakdown rows %v on %d jobs, want %v", id, p.MaxCores, bd.schemes, len(bd.jobs), SchemeNames)
				continue
			}
			for i, k := range bd.jobs {
				j := s.jobs[k]
				if j.Scheme != bd.schemes[i] || j.Cores != s.jobs[bd.jobs[0]].Cores {
					t.Errorf("Fig %s at %d max cores: row %s reads job %d (%s@%dc)", id, p.MaxCores, bd.schemes[i], k, j.Scheme, j.Cores)
				}
			}
		}
	}
}
