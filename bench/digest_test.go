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
	"10/csv":                    "ac0330719ad1a5f159a51cd2bd9bca938b168c9455177a64dfaebda32fa9b23e",
	"10/jobs/full":              "8c01a2f4834c5bcf458985c42beae9dbf51939c97dbd81c73d477dd8d7f4709b",
	"10/jobs/quick":             "db8a0cb78c3bc77bfa7315e9084a0cb92da87b4060490410bde18f8fc0ad5905",
	"10/jobs/tiny":              "88bc8fe5052f72052675629f7d7785c11fc914f431dae1c21138cf974065967e",
	"10/json":                   "511b2c188bab3f464b9af09f75ab7b008970322daeef6e120f332a0d939304c0",
	"10/text":                   "0dc499498236cf14a73602fafdaa04aa4b87c2c156f9324bb1d1740024f7cd3d",
	"11/csv":                    "e49223d3191ece0ffe7e4779ff02e22a296c5d68a7e94ce662125f72e0eaf2f6",
	"11/jobs/full":              "a6705ff368871b82b8588a17e9d0f73c32d15df5d8b7210c2a075f82ec5ec4d7",
	"11/jobs/quick":             "6840c2e7491d30ca20c65d453d52384fee88aae6efb52ba51966a36b6293688c",
	"11/jobs/tiny":              "4cf4006ceb3fecc21043e263ed7f347628870ec4611d603bf52bd25facdcb5e0",
	"11/json":                   "41daf42bba6061f7982a0a2427d3d5568aea63f387f077fad3607455fcc07e2a",
	"11/text":                   "e57092e17e8cc0082ace179f48bf01a0546f3b3ff504f3f7d1c25cc0481c0236",
	"12/csv":                    "aa0ffae4d5ea00064e1588d6c1171c354b75418ca795cb45a5398ff575595fb3",
	"12/jobs/full":              "9c11a617c46b0723a2400a73df6a3bdbf1fd5180beb66f7421a5101f94dceeaa",
	"12/jobs/quick":             "2feb86f92588d470f2d627d1b35be20fcb8786b0910f4f6720ac29168a1d3a7f",
	"12/jobs/tiny":              "9d427104e0a3cf58546278dee7a173bd05521177f766267899db3adeb3374c4d",
	"12/json":                   "81f3beb7d8aa7558afec129f7d5a76d6ca297fd01aab4f24f04a56e496cc4bdb",
	"12/text":                   "463e47f4916c1c74de5bbf3d7bb8fff5103738aa13c71976e688ae1855d01481",
	"13/csv":                    "e255f2fa55b1107e8aa878adc11c5ed2bd038a241096c0eee941f23d832569ed",
	"13/jobs/full":              "c33fd30315b2713dd1d2e37bd7264b82230275ef5af14e551f622d2bd89966a9",
	"13/jobs/quick":             "2ef9658466816107132ac10b12d703cd90294879fb5305512b36f5e2e91c793e",
	"13/jobs/tiny":              "280fac145f802c7743dd908f36210749f20e56616ff9e0e2b18c0f93ff8a1a66",
	"13/json":                   "0a9cd047ac06f8768c59eaf5034e26a860f8ff1119163372e4268d9101ba1c36",
	"13/text":                   "1cfb5cd60a78ce1c00912f18d476a3cc3c788d1392a1d8259949fbc74b6a0cf6",
	"14/csv":                    "80a0f6278de655d0b350f0226c23bd4e56f0480c1a06b11ce40506a53a783281",
	"14/jobs/full":              "b0fa071f82253002bd64285109b1202c4616c2c3cbd566637c211636755cddc9",
	"14/jobs/quick":             "98f5c544bad4e52cc565e4eaddc911ddd893634d7960aa1bc794bbf25b41f8a0",
	"14/jobs/tiny":              "5ab3832e56876591664a96b6b9a7964b269101ed268d12bc54d22faab985e496",
	"14/json":                   "7e3311a8369403dbf5e16e1adbff43a8311c96a687bd9fbe8425342fccbe35d2",
	"14/text":                   "729128d906d76a639d799894e8922fc0ecd90214cc88a4cd7fd5cf9cea6ad790",
	"15/csv":                    "03ff0eb033a16990959d7f5004e83fe016bfe5cd15f53333c743ae173f495312",
	"15/jobs/full":              "ea8978d00cb6156f160e64bf631b3b4d9bafb82c8deaf2ab179376247b115e12",
	"15/jobs/quick":             "8e5a5e4469990dca94e492319c540b1f130b37de254a5862fbd93503d58b1ac8",
	"15/jobs/tiny":              "0ae5b78101098f0ac13128270bd2e9e4576134a86f04fffebfebada30dc517a3",
	"15/json":                   "2a375dcfcc67bb92be90e5627065522a1c3b3b3415755cbd2801e3f590ada91b",
	"15/text":                   "51a691bd05578541c584901ace5b11e49766c935cf0b5774790cc12d67d85ae8",
	"16/csv":                    "2640183b98049abdbbf20b3fef11a8f3fbf75130b64bdc41100fe60cad0cddab",
	"16/jobs/full":              "409a49ab09e53353cc3907f2fac08c9bbfbcea549384f1d84fbf1ef1bdaaacaf",
	"16/jobs/quick":             "b188b4b55561b9c8838b66509493666ab2d31143abadbf0127b1870cd11881d8",
	"16/jobs/tiny":              "f3d6ef9559287a9026f890c7aa20884c8719bbd66211bede0aff3f9b2391374e",
	"16/json":                   "782c1d942304eab21463c88f431efa34a1d1f8229ec3928b807ad3a5f97c05a2",
	"16/text":                   "01fa05fcbcd79526531bfca8b800138286009a29bf33f62c7822e5896b8d62be",
	"17/csv":                    "db00773f314a381f96568080cbc467a6b194ee7c2577c5fc249921bbe270446c",
	"17/jobs/full":              "1a2afd5b24597d9f9dd5d0ffdadc64a5b4381d09fefac63d8e8df66ebd64cc0e",
	"17/jobs/quick":             "ae7792483412af316f72aa0ce77c6583edaeac451c1c86c0cd68cdd77ede64cf",
	"17/jobs/tiny":              "e0b8974aa145384474fcadc50b094f3507f40bd81b33ddd375835a0fdb4d8062",
	"17/json":                   "95bff6ea2447350a66cb745edc8356d484185c7c48c3a01e9c92df18423f1db5",
	"17/text":                   "87676475ec109cb0c03e73a5b53a7ad21493ce972708c41878e89cd78e280510",
	"4/csv":                     "8588766e129f646dc85394e289e81ec22001c4a15fa5c5f0e17dcf5650caed9d",
	"4/jobs/full":               "a107ababa0db258ace99a28e891cbda9baa311746ed51d1e606f4cf4acbcf516",
	"4/jobs/quick":              "091cfc62f510c938ff346c74c560041bc8fa79818c2d0ff0e0efc7f0987c1adb",
	"4/jobs/tiny":               "9051eea9748cce2091a34e0c40ff81e66050a493f293813e361d042681937def",
	"4/json":                    "0f9054d04a09b28aecb7d93a15f83d18a72d817d84ef52db67e9fb9bd831c29a",
	"4/text":                    "bd0e88aa41984c218ffef821d95a05a2e0f6f12c95d5163fc76c0a9e974a248c",
	"5/csv":                     "56988d0cd24eb1932314b2db6534bd6896c43e3f7b8c89c19fe6567c27344755",
	"5/jobs/full":               "c28be073b0572886c6f7fc3dccd605fd6b9526850f2e08eb99945b2239eeb3d0",
	"5/jobs/quick":              "93964360b3694312cb5dbe91cba67b89706266397bf12c20652ecf57572d9352",
	"5/jobs/tiny":               "9517de7da416c5ff212748dd0c7ce965bf9792d21b2d7b9d3309031b520f305b",
	"5/json":                    "d190e4c7dc4552a2b92a35b3cd2f811f46a8f4f9e6cecf92b637a8e6666ab33e",
	"5/text":                    "1006c3283710594776c2c0be521683debfeeeea8adff5ded3a62ce1857735647",
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
	"8/csv":                     "c3a029fe9d81a8b6d4a2b0a21ac944d07bd47ee4ee7fd1328bfc2daa784ac392",
	"8/jobs/full":               "006ffdc377233d139b9542415e474fbefc01a89b5beaeaa3a36f19befb03f36d",
	"8/jobs/quick":              "853ecd34ed618b3aaf2d979132c89a193d53868f2f50ddac72c5826e35080428",
	"8/jobs/tiny":               "22e5e3bbd7f046e786e05e50fa188d9ef26082d4a31d2edf8af7e191b2c19a20",
	"8/json":                    "db30446e025d38c14b78325c3c91b87ca7a22bb33502d69137dc71b4201efe46",
	"8/text":                    "9af55cb3cdc2a7639442d35d4c11bb673e5d5230fc2047c9428b8e3b09c5bb67",
	"9/csv":                     "a5d5a3dd0efedefc6eafaf6aaf213466bc21fcd6c54613c1ad92926cfa51f2aa",
	"9/jobs/full":               "c5ea5c29800d6f65cffd5a9e1730c7f10076bf7b70640ba8520bed23edfcefb9",
	"9/jobs/quick":              "f387561db31461024b53b3241b58a7ee39bc716add112e13ea144e50dc4a62cd",
	"9/jobs/tiny":               "ffc7732bf57e245a1f325aba8f5c31a0ebd7036e0369bb3133058c09fadec1b4",
	"9/json":                    "13835bf5afeb7b6076b0c4d7d332ce65ebace2a46bb9a737441d421d606b4fbd",
	"9/text":                    "70d0bd26940cc4f6057ced152c8236bb067133c19fd1d9d614af04be11edc900",
	"adaptive/csv":              "78bb7eadfdd158a55315ccbfb5792f0f9dc686204d5fe3c790c677cac8546cbc",
	"adaptive/jobs/full":        "bd015cc9dca798d59b8e8285783de8425642dc47cbd8d414678e3229f8234ca3",
	"adaptive/jobs/quick":       "da843b3519d56783601d924c0be25e071f965cf980c7e0d459ba244a84683836",
	"adaptive/jobs/tiny":        "77a6c2b39659965490986a56a44a1c37ff7b0171041dcb77b59ffdc09db63d72",
	"adaptive/json":             "7e1d63814f72639fb14ad6f40a8df06e3afa26b3d9d29a764062b606fb19c60e",
	"adaptive/text":             "18e341ea402f96551ab1cdc09161ce15e38deeaeaa1a7d1f920dca807a91b3df",
	"knee/csv":                  "219ff4a6b620f180336d7f6032ca52a04a49ff816f430481c53b885a251e3b2b",
	"knee/jobs/full":            "8149534c2acf7fe4c5069e099c3575a824bcbe480707121f492a3eb1360aa3b5",
	"knee/jobs/quick":           "04c6aefcba83ad3d227561a0e357d80515609b192ceaf65e5b7af1c0211fc388",
	"knee/jobs/tiny":            "51e223545f0e43fdf092c5aac1c63c435f7aef3c84dada8a4dcc8243babac13a",
	"knee/json":                 "8f1e1e9a226f62e7bed4487fa382718a7c4ae387cda763310ae65c954d4ab851",
	"knee/text":                 "9bc0686317d70dddd556ac6fd8dd282f5e3999f94de4be4740797dcd125fdbd1",
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
