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
	"10/csv":                    "ba2fcbe82e8ebab5495c4c5ad42af74581224399432efd57169a8988fb97f7c8",
	"10/jobs/full":              "0571ad4bcd511c49b2a8b4f946f33afe6907ba9b36262c94811fcbd38ef383d4",
	"10/jobs/quick":             "8229f6fb84e1e062dda557e334bc7e7bfa92b6559b90171325ce1fe9511c8a66",
	"10/jobs/tiny":              "8f7c329185d2a596755f46df4a98d278e8f61270e9792fd64f9324097315d249",
	"10/json":                   "33521d77bfee6031943a80735efc20df15710c4ce8722e8cab7484370a450b92",
	"10/text":                   "138a92247b80bfee82d9ebb70f78d30c9f2bb6a368e6058665db4a700ecdad2c",
	"11/csv":                    "4ca5c91ece7f29acc6180900c87d339408ae2b60c7ffa01bb992b91d096b4322",
	"11/jobs/full":              "1e2762a92853d96911612d4854a68025bd96a15d6fb1d26894183b8b165da7fa",
	"11/jobs/quick":             "0203d535de8407f3923aadeb9920f7d99824d7f15a7d65e527abda3d68feffb9",
	"11/jobs/tiny":              "52ab224c7f7aae908f72fbcd528e56fde27f3540fb9c30d9d3c7d5025688a117",
	"11/json":                   "e874857f3f9a0511ea362544c20d8c2085c86c2dd734ee0428eac28b13a927b2",
	"11/text":                   "b5c97d3d5f4063be11768ecf2ee401fb6154209c410b78ad6f041882c73678fa",
	"12/csv":                    "45071bd8ab573d71775a6653dcb1ba4d0b110e75aa7035a72e52a621c1e3ce0b",
	"12/jobs/full":              "27030d5eada2c942bff37e18d2983af747a4a9e9f593821aea77ba8d271c8cc5",
	"12/jobs/quick":             "2870e2d482bec62ae4d2627a82c7f95fe8115bb76af4ef37fa8e88677cd4c891",
	"12/jobs/tiny":              "6c9c9ddee5ff9d67f4bce9a785b4a97875b8325bebbb84007968b5a78b3a8262",
	"12/json":                   "7f6b24ef7c99bf606701e1575285a6418068cf1eaffa414fc308cedde08f87cf",
	"12/text":                   "5cdf73075dbd2d586eb9963275dca1e330090c035048fad4c697c3e8a3d5156e",
	"13/csv":                    "a3b2c9839cc341cbec769404a053bded3a837046210500875a1c915672e1914c",
	"13/jobs/full":              "2ef5048168c4d1ca083d610824435cb52c6fda42efd8336ef3d2d9b4470db0b2",
	"13/jobs/quick":             "8d1ab8e6bbbc2d83f549d1f92162b4f2ea7b861a05ce4850b92b9e4c52c25221",
	"13/jobs/tiny":              "dd70eca8dac4ab153ad2e6123d917e07f7caef6704214a0b724aa2cd1cead89a",
	"13/json":                   "8c755092c326941b4932b2e0eaa7af69359cfa2f936b2b610a3c44e5cc1498c6",
	"13/text":                   "04da6aff9fc4182898915ebe4bc61eb5bde620523d05ea582a27f2776e1cb4b4",
	"14/csv":                    "85274b72218c8ff2e5e6fda4f93a457d47573f5c78fbfbd0471013885e658464",
	"14/jobs/full":              "06843be7569e36d67676ea447eab0667da3b3a2bf3f4ba8cf4ce1bde51ff65ef",
	"14/jobs/quick":             "49177fd1acc5c99958b8f366e4a55e0b0c6c78231dd2bf9ecc883d11f057660b",
	"14/jobs/tiny":              "62073d9035c320309cda9287f42e6c2483b37d6cff139e7385c194446bd93f91",
	"14/json":                   "3d58ded54147d21c1fab480367544d055471566ee93ab118c1a91ebbc652331e",
	"14/text":                   "da1006afe0910746c2c5e07b0271c5048276c24cea0798f362a4b78537cff63b",
	"15/csv":                    "ad14a907a5902568de27e3352962ce0850356946f7dc6119bfa87462f0761792",
	"15/jobs/full":              "4cd1614f7f3652f9c5631f6c4ec1d515196235ced4e8f4440ee8ef3af124ae84",
	"15/jobs/quick":             "5e3d69ffeb9e816e5f42adb755f66af4adbc24701fab5a4676ebe369ac4ecad3",
	"15/jobs/tiny":              "2b6025adfd8c746b7c407e3dec4f7f12166be11043122dc83be1beea4dc91d6d",
	"15/json":                   "523e28ce074441f1cdf74771c7852929ee3054c47f9cacd1bf5dc77d0f1738cf",
	"15/text":                   "1eb361bac6eeb193371d2b66205bd34730bcd535c6548612cb14b67a5969fe60",
	"16/csv":                    "c805e5ef3abcd15fbccfd76e13db6942f125dd5dd362d54ac23ffa68ecfb3994",
	"16/jobs/full":              "bd9e9067bf649274fdadd9d9aa167466c7099a265bf61f0b6b5c1cd989867926",
	"16/jobs/quick":             "3cefc916bd72e645b60083ef927f67f5a11bc8c4071a4f9eacdaa426f27332ba",
	"16/jobs/tiny":              "26897f29949a753f21638589a4ab0bef14cc6aa41c1526a18480cc03922c1895",
	"16/json":                   "2324864be1383dc39b4571a220ee0b4226da2924a220f8e14ae1a44ea7a6a6d6",
	"16/text":                   "e1bf8d24c68a11d9cc6f465a3fb7659373ae27769661a5070852cf6872996174",
	"17/csv":                    "c594fc24a43871a7279232a25d49cca1eacad8ccaf7f2c681651e8e307ef553c",
	"17/jobs/full":              "f3e9a60562c92f6c4a671464f11c4a47032ce16b0ee127e6f60cf6d20f73a4bc",
	"17/jobs/quick":             "5ca96931a6b27eba34665b04f5ce67b1ab6e2d5fb799fc460a3d060ada3eac59",
	"17/jobs/tiny":              "29409012fb3c71af9a60b47774a5fd2ff326dc47ff58205c9701f657982ef561",
	"17/json":                   "27886a14aa1c9ae7cc28ff4828398551afcc0bd64e0460cb6f7db86a7bff2aaf",
	"17/text":                   "5b34c340f0cfae5355a8241b741c6449385210298487d9c90395817e7d31ef63",
	"4/csv":                     "3b2b4162fb0edd9aaf3752c95e9fcc46a86d05f31a2dc19c3492324f409faa13",
	"4/jobs/full":               "f95041214b7134c1902d7765450a5351cf793b2d6ee41967911d392925d96b82",
	"4/jobs/quick":              "388495b890ff91bec68893f51144cac4deb391540f410ade59a796481bf76aa0",
	"4/jobs/tiny":               "b81e6d2221ad911284ea7727a74d2424935271ab1a7afa2110bab32ce26e11cf",
	"4/json":                    "0ad0fbea33c799a23a680cb5697409097ce71bcbb1d665b69b3b6d1bf986ab07",
	"4/text":                    "de6fb4a6eb4e5730674f5517a9873d28e49183b2b5e9523b0e87d3f207f7ef12",
	"5/csv":                     "f62e992ce710b82975e7bb819d29a4f82b002b2f48f3147978952ce6760c1bf3",
	"5/jobs/full":               "3e177803cfb6c069b7d9681dc999e2e81a9c0882fac0fad346e7af5be1358f5a",
	"5/jobs/quick":              "05c31e32f2df466f313db77164d05a642425f4ccef4242d5f065c131cb5e6480",
	"5/jobs/tiny":               "a87926572e58d042d50c9e4db0c55464fe9ee1948ce8046d66f1ab28f614810b",
	"5/json":                    "6435b5f324ee3ffe088693060232ddefbd2dac75308d9c6e5bc112f1a271012b",
	"5/text":                    "ac73de8d08868cdef9adfe10dc95468d2c3eb3914f677cdcec668aadf8189117",
	"6/csv":                     "9a134c6e330dc43a30d2c1f1494155cb768bc2ac2341284247293fd9020bb685",
	"6/jobs/full":               "f91865b84ee8a9003262b11fae19f429220cfd17cf635e8134d01bc28d925f37",
	"6/jobs/quick":              "bfce8e03dc2d5ec878f4d884cdbb98c73031962d1c60c9c32aafbdddec36b32b",
	"6/jobs/tiny":               "281333a6a639593e19ea77cb28a96eb74d956959eb6b67eef069ccfd586c7b02",
	"6/json":                    "dfe122652a5c4516284fa751da5324ff3a82e5cba9ac8f45860641c4e05d17fe",
	"6/text":                    "0fa005b353821c3982823274140e1585ddf95535f4f35b47b38f3d0c942f3909",
	"7/csv":                     "2cfff5780bf1f2511366e0fabc3da50e3fccfe7d4ce637ad6effcd3870499275",
	"7/jobs/full":               "ef593999188f72e62e5c7c202343bd84114556062695083450297ffd0d333fc0",
	"7/jobs/quick":              "1820a8e782d8af6869ca3d4c9c5d2b985a71bc8fd1dfacd96ce7185019001acf",
	"7/jobs/tiny":               "4aa730f0abc7e69eba02a9fa0d34c4807efad6591f900d37ec908ddcff0ea023",
	"7/json":                    "d765dc1b602a44caa0ba69562341b8237a7f3f40ceb633f623f683465a586d6c",
	"7/text":                    "98520795dcd1143524431456aba0b9af46c08f7977ef66cc9435f1666119d680",
	"8/csv":                     "3a1f4ea54dd9ab1e692d0c61095864622e0008ecaec368129a711f0e9f514651",
	"8/jobs/full":               "5f6aa114b5e0e96e0529526b1f1629fb8d53a9ee683fecf3579c9b601de288dd",
	"8/jobs/quick":              "ea2da1ba7e0547a7fa87ac7d2d1cd5a476a38d21156ce80d0b72c00a2b8e9ea8",
	"8/jobs/tiny":               "98ba12b1ae1daede6d2f813edb455c50df867240bc3e849e04841772af63fdd4",
	"8/json":                    "44f5bf57e1ca41b5fd7c8b1b1db1092a88a6c396bf3e728e89ea09f0b02ff9b4",
	"8/text":                    "77149ed301ea846794ff6ef831bde901ddb6105689a48142f747b73033f11e8b",
	"9/csv":                     "3bf6625f485b4877247a3572439296117660a812afb4838b35f6b1542a78566f",
	"9/jobs/full":               "c65e0173be592e85b91731fea9ed286b38892b982ca7a4aba2ba7b5f3ddd08a0",
	"9/jobs/quick":              "bc02fdc4f50f797fb4b2b758f86adf35ab532260fc739b686349a043b776d15f",
	"9/jobs/tiny":               "06468b25b475b2f4e3dffe3cc63fa47f9fd92590a5cfd833c36598f1d02d215b",
	"9/json":                    "b7b7d4a37f7600aa49f352db56f448ae6752353db103913bf4db87adc021790a",
	"9/text":                    "667798ade8153a9fb0edb7510cbf372de5cd2777e914dfbb46587ab9ebbd2c37",
	"adaptive/csv":              "b4ef35400b0676c9c74240f035167e2d10354722d7ca00cebb3b8eb90397b488",
	"adaptive/jobs/full":        "bafe335c49f5f58181131ae6f87fbae5e4e8f5199be5058bfbe90f6eccf6347d",
	"adaptive/jobs/quick":       "7e3abb59593bff5fc0347fc2b35b08a722b2587c0a6032c7adf13ceb50723de5",
	"adaptive/jobs/tiny":        "200c47fe9441cc8f2794f667177ca4320b86636f65128e48f7aeea21edf315cc",
	"adaptive/json":             "e8653f4b129ded1570fb4eed97aa3234eca272554a88c7696e9233e2166043c1",
	"adaptive/text":             "be267fb262eb5953395a1be7ec55558853730677599f7981a1ef2a5ece154f22",
	"knee/csv":                  "61c988c9c2c4abd00d97ac672455789a8d7055a59af99a304b0921bcf4240229",
	"knee/jobs/full":            "9db2527cf96c9019306edf67929950777a8d38ed88d86d9ba52b096426bad55b",
	"knee/jobs/quick":           "dfdb939fb91cad6bb464bc6e136edff230da0bcbe5d85da7300f4c42088eacdb",
	"knee/jobs/tiny":            "a77b962ec21e5047553f8a6f3080f2ec42849d73d858bed84f7ce96b16794933",
	"knee/json":                 "8d5abe1f80c6e5e4ee81e5fd3fe57880a97474bb2ef554e99cb31c62dc3841b4",
	"knee/text":                 "f6580299ff316319aadba787a982787d5ea90ac3d084aa30115caaf5830d25bc",
	"malloc/csv":                "95eace3280d7f9ba6e32d52ead3d638df0357146504d97712e1c900bb9ddb15f",
	"malloc/jobs/full":          "cad76b7e8b97885d88c68cccefd02e9ba77c55aa1af03e4e6eea8c894d3cb557",
	"malloc/jobs/quick":         "7861943474fcfca876de498f0386f884dd102e8fbac9b597c034bce4c804f45c",
	"malloc/jobs/tiny":          "c609a943352338361e65ce9f6efce53bcb25cede39238dbef025ab6eea0a0b3a",
	"malloc/json":               "8c1f27ee935bd5946b53b5efbf12e5a49299b9191ffe5496d99c568a7956dcb4",
	"malloc/text":               "2cc482d66cc0b8afbdd19adb137c915037646f5750ef5c4516138f67019eb16c",
	"occ-validation/csv":        "737ef25cd25bb20ef0fe28c0b9ae769e454c6fc24389212b2d1ef50f884d897a",
	"occ-validation/jobs/full":  "3c0f4aeb5637a6010da8fbeb1cf953c2a26a532108a1fe9b180b07893f2ec234",
	"occ-validation/jobs/quick": "48d113dbdbba1669c33fc0afee854db9536c1ca9dc7db02f4410496d364161ef",
	"occ-validation/jobs/tiny":  "d448b2dec1341ad638908d98a37d66f432c05f0014276fcc3bca60573632593f",
	"occ-validation/json":       "f72577adc9d286fdb59083a9168981f75477c39a50f082c2769f38c05e22514f",
	"occ-validation/text":       "2cc3ea9259538336e94434942344f774ae33de25d30e75b8e46a148aef4bac32",
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
