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
	"10/csv":                    "0f84857387a2f98ffb707f481677a4606e349380f6ad8ff11381c64579c87629",
	"10/jobs/full":              "8c01a2f4834c5bcf458985c42beae9dbf51939c97dbd81c73d477dd8d7f4709b",
	"10/jobs/quick":             "db8a0cb78c3bc77bfa7315e9084a0cb92da87b4060490410bde18f8fc0ad5905",
	"10/jobs/tiny":              "88bc8fe5052f72052675629f7d7785c11fc914f431dae1c21138cf974065967e",
	"10/json":                   "eb343e4428c12f4fb940188973519855d140d939ac9d69fdc76e7cc49e5235c3",
	"10/text":                   "ff3188aacf07ffcadd9b180a623523fc0bb36feed3df78c40bdaef9244a0ba92",
	"11/csv":                    "7f97bb1fdfb677b2830da7ac813f5d2908759d29c4636ae08cbd9e3fac5ef7b8",
	"11/jobs/full":              "a6705ff368871b82b8588a17e9d0f73c32d15df5d8b7210c2a075f82ec5ec4d7",
	"11/jobs/quick":             "6840c2e7491d30ca20c65d453d52384fee88aae6efb52ba51966a36b6293688c",
	"11/jobs/tiny":              "4cf4006ceb3fecc21043e263ed7f347628870ec4611d603bf52bd25facdcb5e0",
	"11/json":                   "1a94811467afe7c73219e773ded563929d0c45fac8d9b4316d024638a2fdd766",
	"11/text":                   "2275d51185218e0901ce18c440dfe8e4f35079cea994b8b294187a1d39a28acc",
	"12/csv":                    "b9143202e80224dbbbfea7626a62730db78d93f3893b4ec125b0f74570086fbb",
	"12/jobs/full":              "9c11a617c46b0723a2400a73df6a3bdbf1fd5180beb66f7421a5101f94dceeaa",
	"12/jobs/quick":             "2feb86f92588d470f2d627d1b35be20fcb8786b0910f4f6720ac29168a1d3a7f",
	"12/jobs/tiny":              "9d427104e0a3cf58546278dee7a173bd05521177f766267899db3adeb3374c4d",
	"12/json":                   "a9ed2b2f0afcf24b9830852b03451243631d8bfd2c5603516f67d7f9b0be1316",
	"12/text":                   "ece69d2befc904495ac3e9a6c9a76d5a5bf21b487790179a3aa76982f8d1a670",
	"13/csv":                    "ba99b10f612f06fd09587f1cab3665e90e427b37e1de96022514df77590eb8da",
	"13/jobs/full":              "c33fd30315b2713dd1d2e37bd7264b82230275ef5af14e551f622d2bd89966a9",
	"13/jobs/quick":             "2ef9658466816107132ac10b12d703cd90294879fb5305512b36f5e2e91c793e",
	"13/jobs/tiny":              "280fac145f802c7743dd908f36210749f20e56616ff9e0e2b18c0f93ff8a1a66",
	"13/json":                   "b7afba6910072d8aacf01fb45d7290a06ad6421537b3061f3780372e24c473b3",
	"13/text":                   "fadc6346dc65d69a57de9441b2b6f8fb6df69e9a8bdd77821d34c9a83636df57",
	"14/csv":                    "bd9eb25a052037669dfb333c3169edee7a4ceedfdd38149b44926c2c65399a8d",
	"14/jobs/full":              "b0fa071f82253002bd64285109b1202c4616c2c3cbd566637c211636755cddc9",
	"14/jobs/quick":             "98f5c544bad4e52cc565e4eaddc911ddd893634d7960aa1bc794bbf25b41f8a0",
	"14/jobs/tiny":              "5ab3832e56876591664a96b6b9a7964b269101ed268d12bc54d22faab985e496",
	"14/json":                   "3bd466b12cb7daa8d80018f46401de214ef8b85ec7a1763557deb2f18bb71b5e",
	"14/text":                   "37c22847156ac8419df601c0bd0e28dc5acfbc35d72241bfb6ff1a4a3dfcaa97",
	"15/csv":                    "13866890e1fd25e48e3920c0dee48f3848b307030693b3e948a419227feefcfc",
	"15/jobs/full":              "ea8978d00cb6156f160e64bf631b3b4d9bafb82c8deaf2ab179376247b115e12",
	"15/jobs/quick":             "8e5a5e4469990dca94e492319c540b1f130b37de254a5862fbd93503d58b1ac8",
	"15/jobs/tiny":              "0ae5b78101098f0ac13128270bd2e9e4576134a86f04fffebfebada30dc517a3",
	"15/json":                   "17d127ddafdbee4cffb3596cedb9b8da26fdf6da5694558086afb8eb6d259d9f",
	"15/text":                   "de094baf3d16ba786e59988040ca53ff8c635b7701cf067861e58396104d2975",
	"16/csv":                    "ca683dcafa3ddbc8a1ece9a706b805c0f880f12db8a05f0ee1e9b04418c2e242",
	"16/jobs/full":              "409a49ab09e53353cc3907f2fac08c9bbfbcea549384f1d84fbf1ef1bdaaacaf",
	"16/jobs/quick":             "b188b4b55561b9c8838b66509493666ab2d31143abadbf0127b1870cd11881d8",
	"16/jobs/tiny":              "f3d6ef9559287a9026f890c7aa20884c8719bbd66211bede0aff3f9b2391374e",
	"16/json":                   "ac2ce64e272dc064c7bd01edc31d51773f414e672f3f701213f3561530fb897d",
	"16/text":                   "32b2623746d0d5d61db6d9ac4bf8b542a07f280b4d362d8069e30464bcf499e5",
	"17/csv":                    "d5e3ae831184e725eb33e54a68e56e7a45cda91f198c45b8e65847fbd4fbd21c",
	"17/jobs/full":              "1a2afd5b24597d9f9dd5d0ffdadc64a5b4381d09fefac63d8e8df66ebd64cc0e",
	"17/jobs/quick":             "ae7792483412af316f72aa0ce77c6583edaeac451c1c86c0cd68cdd77ede64cf",
	"17/jobs/tiny":              "e0b8974aa145384474fcadc50b094f3507f40bd81b33ddd375835a0fdb4d8062",
	"17/json":                   "0ff628c4b0a55fdf2e4caf9a45728c270fa87869d7854c18e5c66d7eeea5177e",
	"17/text":                   "2a55b98436cf99dbf4f6d674c17025e23d9d70776ad3133ce1d7c750dd9a6f9c",
	"4/csv":                     "163159e496641c69e6e6c608d4134a81c1c0362603eeae7492de51045b3158d4",
	"4/jobs/full":               "a107ababa0db258ace99a28e891cbda9baa311746ed51d1e606f4cf4acbcf516",
	"4/jobs/quick":              "091cfc62f510c938ff346c74c560041bc8fa79818c2d0ff0e0efc7f0987c1adb",
	"4/jobs/tiny":               "9051eea9748cce2091a34e0c40ff81e66050a493f293813e361d042681937def",
	"4/json":                    "7bafe7cb569debdba37663a3344d6c8ce8b9cef4c4636deb62c92330158090d7",
	"4/text":                    "1fd0c052d267050504558a2d3708cde6545177bd717a4d99a32bdc6bf2aa08f2",
	"5/csv":                     "5ae090df5978f84f26871adfcd2e8705bce03f4ba1259afbbc94c68f59678559",
	"5/jobs/full":               "c28be073b0572886c6f7fc3dccd605fd6b9526850f2e08eb99945b2239eeb3d0",
	"5/jobs/quick":              "93964360b3694312cb5dbe91cba67b89706266397bf12c20652ecf57572d9352",
	"5/jobs/tiny":               "9517de7da416c5ff212748dd0c7ce965bf9792d21b2d7b9d3309031b520f305b",
	"5/json":                    "f01a6df76977024401869f017cd425a17cfb354242d8610f6989b60e1709429d",
	"5/text":                    "6fcaf64c59be07a329f659dd61c3828b7e9ec93feeec19631af89bbcb204d685",
	"6/csv":                     "9a134c6e330dc43a30d2c1f1494155cb768bc2ac2341284247293fd9020bb685",
	"6/jobs/full":               "b09dc685517b5f67dfa29ad4598a6c104e819509612ed4e2afbe74b969e9fc6d",
	"6/jobs/quick":              "46d09ef7969be8092bc15c6594b3b7fd3aae7dee169ec52719fdbd9a9d2a3b9f",
	"6/jobs/tiny":               "ed7c69e86e667449b99f09415fc15c5f51340ed6371ea7a59046a884c12f6114",
	"6/json":                    "dfe122652a5c4516284fa751da5324ff3a82e5cba9ac8f45860641c4e05d17fe",
	"6/text":                    "0fa005b353821c3982823274140e1585ddf95535f4f35b47b38f3d0c942f3909",
	"7/csv":                     "bfb880999ef971ecd828c777a401a7502dece838e5db0619216b7f87e82807b3",
	"7/jobs/full":               "7a2129e30c2997c395b74cb2cbc7cdd0eaccc421d426086ecc0d78b539d4eebf",
	"7/jobs/quick":              "5f23b19fcfa4a316f254116adf76b6832a08977ecc76f922e7ca6fd423336a93",
	"7/jobs/tiny":               "4046a8899ff1f2eb50ca8bf808f15b7ef7758c588e7b0ea6cf784860a6d25c2c",
	"7/json":                    "3c9a13383ec334a83cb0538bd463153d916d3133d7ca707eb130572fd4da9ea4",
	"7/text":                    "c0fc0944cbc1e1dde3bde377acdc416504bd66f670e1c6f5c4e092b32d9fa4e9",
	"8/csv":                     "dc2ffa5f67bcba891ee7f1e6eda012cf63c6db388788e86e52ba15818e60c048",
	"8/jobs/full":               "006ffdc377233d139b9542415e474fbefc01a89b5beaeaa3a36f19befb03f36d",
	"8/jobs/quick":              "853ecd34ed618b3aaf2d979132c89a193d53868f2f50ddac72c5826e35080428",
	"8/jobs/tiny":               "22e5e3bbd7f046e786e05e50fa188d9ef26082d4a31d2edf8af7e191b2c19a20",
	"8/json":                    "c0a04f1493ac3ec3cd7fa04e391931c103b5a4d64ed1b14aee67b437e8426caa",
	"8/text":                    "1e91306817058ae97f30a0dbdea8d4b3e470f057f7d3aa10b9494455972ab992",
	"9/csv":                     "65de24e1c7ff0c7666840d574ff57d18de0b62f0806cba109203a8a839701e34",
	"9/jobs/full":               "c5ea5c29800d6f65cffd5a9e1730c7f10076bf7b70640ba8520bed23edfcefb9",
	"9/jobs/quick":              "f387561db31461024b53b3241b58a7ee39bc716add112e13ea144e50dc4a62cd",
	"9/jobs/tiny":               "ffc7732bf57e245a1f325aba8f5c31a0ebd7036e0369bb3133058c09fadec1b4",
	"9/json":                    "747ae3d37e81e7dde381fc296d5d20b20f6a008a13749240b547473d59f45253",
	"9/text":                    "6d48bdf02c9ca3c58d1882dc28da85a0bf4dcea9f10338cc9691495cb9ad470d",
	"adaptive/csv":              "d465c1ca9fb5345770b090890fec1c8c2d78b0ad00994aef694aa9931fb53478",
	"adaptive/jobs/full":        "bd015cc9dca798d59b8e8285783de8425642dc47cbd8d414678e3229f8234ca3",
	"adaptive/jobs/quick":       "da843b3519d56783601d924c0be25e071f965cf980c7e0d459ba244a84683836",
	"adaptive/jobs/tiny":        "77a6c2b39659965490986a56a44a1c37ff7b0171041dcb77b59ffdc09db63d72",
	"adaptive/json":             "6861a66ea94b0c035283fffc3e8fcddd1f3da6fcd5af016684bda008737e55d3",
	"adaptive/text":             "46d5690b95e885cf16bbf06a3a44bd82ed016990308cd751dc1f5390f991f9fd",
	"knee/csv":                  "335761aeee554ae5416e88cd03502ac5660a88f52ed5df10973cb058b6969b8e",
	"knee/jobs/full":            "8149534c2acf7fe4c5069e099c3575a824bcbe480707121f492a3eb1360aa3b5",
	"knee/jobs/quick":           "04c6aefcba83ad3d227561a0e357d80515609b192ceaf65e5b7af1c0211fc388",
	"knee/jobs/tiny":            "51e223545f0e43fdf092c5aac1c63c435f7aef3c84dada8a4dcc8243babac13a",
	"knee/json":                 "d4b5bd26eb7bc5a8f44c19d3259c7267d4d633bcbed20c6f48e80a83b08e324c",
	"knee/text":                 "242b2e3c187ed2235a0fce8f8303943a2325ba6cc8029bce9412c7a0fd3a96eb",
	"malloc/csv":                "f015af6fd9cf3363f2c3ce388b97469af25aaeb580185e6451272532f55e06f3",
	"malloc/jobs/full":          "167eea2b4ebe8e77d38576385bdf00821a97778e1847fc72cedbfcea0b6e4379",
	"malloc/jobs/quick":         "de9beb5e79e949d5953121ec001ab11a7cd876d53e653c4c3fb073db2d9e65d0",
	"malloc/jobs/tiny":          "d29053fb8ca2c47280562064b3972553dc14246d51089c424543650abb6e3701",
	"malloc/json":               "5d08770b267f4e4207de91249275e96fba86ea175254849fd8a25a81ddca1099",
	"malloc/text":               "10b48018ea180893f5d75324b5bd885a072af0d3dc491e6a225f2ef05d6970f7",
	"occ-validation/csv":        "e591816e33bc0739281ac6036fedf94cd8594f1b2292d252261cac7e1686de7a",
	"occ-validation/jobs/full":  "ce608e314b3b3bbb9b5458a844581233280fc892c4f2e4e67871153b1b62f43a",
	"occ-validation/jobs/quick": "90fec78b7c64f234b7331716d8b7deca2d583d8f2486fc27f127e42be8c8fc41",
	"occ-validation/jobs/tiny":  "389289799b4ae019e61f7a8a4516b29d81c8d6cd7be834bcf9b6e4693d4b53b6",
	"occ-validation/json":       "fe2406c5fe1fb5c45aa1da221b36f4c1b9e7e879e5456e4abb24afaa70855d1f",
	"occ-validation/text":       "1eb714053280bbaad9ba49536fd53671a0de47a48b3106b21e6af34df563f694",
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
