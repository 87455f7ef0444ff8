#!/usr/bin/env bash
# Checks of the `cohiggs` console script ([project.scripts]) that README
# documents, each a command line and its answer, run in a temporary
# directory.  COHIGGS is the command, split into words (default: `cohiggs`
# on PATH), and `python` reads the answers:
#
#   pip install . && bash tests/console_checks.sh
#   COHIGGS="python -m cohiggs.cli" PYTHONPATH="$PWD/src" bash tests/console_checks.sh
set -euo pipefail
read -r -a cohiggs <<< "${COHIGGS:-cohiggs}"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
cd "$work"

# one answer, and one malformed command line that must end as exit 2 with a
# single InputError line and nothing on stderr
test "$("${cohiggs[@]}" ext dims --u 1/2 --v -3)" = '{"dim20": 6, "dim02": 5, "total": 11}'
code=0
out="$("${cohiggs[@]}" ext dims --u -1/2 --v 1 2>stderr.txt)" || code=$?
test "$code" = 2
test ! -s stderr.txt
echo "$out" | python -c 'import json, sys; (line,) = sys.stdin.read().splitlines(); assert json.loads(line)["error"]["kind"] == "InputError"'
# the extension ansatz at 4,000-digit u and v (CPython reads at
# most 4,300 digits) answers well within 5 s
u="$(python -c 'print("7" * 4000 + "/" + "3" * 3999 + "1")')"
v="$(python -c 'print("-" + "5" * 4000 + "/" + "9" * 3999 + "7")')"
test "$(timeout 5 "${cohiggs[@]}" ext dims --u "$u" --v="$v")" = '{"dim20": 6, "dim02": 5, "total": 11}'
# with u = 0 the transitions drop their zero factors, and the
# scale d (the lcm of the denominators of u and v) is v's alone
test "$(timeout 5 "${cohiggs[@]}" ext dims --u 0 --v="$v")" = '{"dim20": 6, "dim02": 5, "total": 11}'
# with v = 0 the columns take their third shape (u alone nonzero),
# and with it the ansatz its third pair of singleton templates
test "$(timeout 5 "${cohiggs[@]}" ext dims --u "$u" --v 0)" = '{"dim20": 6, "dim02": 5, "total": 11}'
# the closed-form sections at the same class: both glue, and with
# every coefficient nonzero the two components do not commute.
# The answer holds integers of over 4,300 digits, so it is read
# with CPython's int->str cap lifted
echo '{"c00": 1, "c01": 2, "c02": -3, "c10": 4, "c11": {"num": 5, "den": 2}, "c12": -1}' > phi1.json
echo '{"a00": 1, "a01": -1, "a02": 2, "b00": 3, "b10": {"num": 1, "den": 3}}' > phi2.json
timeout 5 "${cohiggs[@]}" ext build --u "$u" --v="$v" --phi1 phi1.json --phi2 phi2.json > build.json
python -c 'import json, sys; sys.set_int_max_str_digits(0); a = json.load(open("build.json")); assert a["glue_check"] == {"phi1": True, "phi2": True} and a["dichotomy"] == "NotIntegrable", (a["glue_check"], a["dichotomy"])'
# Phi_2 alone commutes with the zero Phi_1: the dichotomy is Phi2Only
timeout 5 "${cohiggs[@]}" ext build --u "$u" --v="$v" --phi2 phi2.json > phi2only.json
python -c 'import json, sys; sys.set_int_max_str_digits(0); a = json.load(open("phi2only.json")); assert a["glue_check"] == {"phi1": True, "phi2": True} and a["dichotomy"] == "Phi2Only", (a["glue_check"], a["dichotomy"])'
# the same class with all eleven free coefficients fractions of unrelated
# 4,000-digit numerators and denominators: each entry goes over the lcm
# of the denominators it reads, and the answer comes well within 5 s
python - <<'EOF'
import json, random
rng = random.Random(4001)
big = lambda: rng.randrange(10**3999, 10**4000)
frac = lambda: {"num": rng.choice([-1, 1]) * big(), "den": big()}
json.dump({k: frac() for k in ("c00", "c01", "c02", "c10", "c11", "c12")}, open("phi1_big.json", "w"))
json.dump({k: frac() for k in ("a00", "a01", "a02", "b00", "b10")}, open("phi2_big.json", "w"))
EOF
timeout 5 "${cohiggs[@]}" ext build --u "$u" --v="$v" --phi1 phi1_big.json --phi2 phi2_big.json > build_big.json
python -c 'import json, sys; sys.set_int_max_str_digits(0); a = json.load(open("build_big.json")); assert a["glue_check"] == {"phi1": True, "phi2": True} and a["dichotomy"] == "NotIntegrable", (a["glue_check"], a["dichotomy"])'
# a batch with 4,000-digit alpha and beta: each line is written with
# the int->str cap lifted (once per run), so gamma' of about 8,000
# digits prints, one line per tuple.  The lines come from one
# template, not from json: each must be what json.dumps writes
python -c 'import json; a = int("7" * 4000); print(json.dumps({"tuples": [[0, -1, 0], [1, 1, 0], [a, -a - 2, 11], [2, 4, 5]]}))' > grid.json
timeout 5 "${cohiggs[@]}" moduli nonempty --batch grid.json > batch.jsonl
python -c 'import json, sys; sys.set_int_max_str_digits(0); lines = open("batch.jsonl").read().splitlines(); out = [json.loads(line) for line in lines]; assert [o["nonempty"] for o in out] == [True, False, True, True], out[:2]; assert len(str(out[2]["reduced"]["gamma_prime"])) > 7990; assert all(line == json.dumps(o) for line, o in zip(lines, out)), lines[:2]'
# a batch of 35,301 tuples, more than one chunk of lines, written
# with unbuffered stdout (one write per chunk): every line is there,
# and each is what json.dumps writes
python -c 'import json; print(json.dumps({"tuples": [[a, b, g] for a in range(-20, 21) for b in range(-20, 21) for g in range(-10, 11)]}))' > grid35k.json
PYTHONUNBUFFERED=1 timeout 5 "${cohiggs[@]}" moduli nonempty --batch grid35k.json > batch35k.jsonl
python -c 'import json; lines = open("batch35k.jsonl").read().splitlines(); assert len(lines) == 35301, len(lines); assert all(line == json.dumps(json.loads(line)) for line in lines), lines[:2]'
# the same tuples with gamma outermost, so that no two neighbours
# share c1 and the reduction memo evicts: the same lines, permuted
python -c 'import json; print(json.dumps({"tuples": [[a, b, g] for g in range(-10, 11) for a in range(-20, 21) for b in range(-20, 21)]}))' > grid35k_outer.json
PYTHONUNBUFFERED=1 timeout 5 "${cohiggs[@]}" moduli nonempty --batch grid35k_outer.json > batch35k_outer.jsonl
python -c 'import json; lines, inner = (open(p).read().splitlines() for p in ("batch35k_outer.jsonl", "batch35k.jsonl")); assert all(line == json.dumps(json.loads(line)) for line in lines), lines[:2]; assert sorted(lines) == sorted(inner), len(lines)'
# COHIGGS_LOG adds diagnostics on stderr and leaves stdout as it is
out="$(COHIGGS_LOG=DEBUG "${cohiggs[@]}" cohomology --a 1 --b -2 2>stderr.txt)"
test "$out" = '{"h0": 0, "h1": 2, "h2": 0}'
grep -qx 'cohiggs DEBUG dispatch cohomology' stderr.txt
# the +-1 normal form on O(1,0)+O(-1,0): A1 = z1 + 1/2, B1 = 3 z1^2,
# C1 = 2 goes to (0 -det Phi_1; 1 0) with -det Phi_1 = 7 z1^2 + z1 + 1/4
echo '{"bundle": {"L1": [1, 0], "L2": [-1, 0]}, "phi1": {"m": [[{"monomials": [{"i": 1, "j": 0, "num": 1, "den": 1}, {"i": 0, "j": 0, "num": 1, "den": 2}]}, {"monomials": [{"i": 2, "j": 0, "num": 3, "den": 1}]}], [{"monomials": [{"i": 0, "j": 0, "num": 2, "den": 1}]}, {"monomials": [{"i": 1, "j": 0, "num": -1, "den": 1}, {"i": 0, "j": 0, "num": -1, "den": 2}]}]]}, "phi2": {"m": [[{"monomials": []}, {"monomials": []}], [{"monomials": []}, {"monomials": []}]]}}' > pm1.json
test "$("${cohiggs[@]}" higgs normal-form --field pm1.json)" = '{"field": {"bundle": {"L1": [1, 0], "L2": [-1, 0]}, "phi1": {"m": [[{"monomials": []}, {"monomials": [{"i": 2, "j": 0, "num": 7, "den": 1}, {"i": 1, "j": 0, "num": 1, "den": 1}, {"i": 0, "j": 0, "num": 1, "den": 4}]}], [{"monomials": [{"i": 0, "j": 0, "num": 1, "den": 1}]}, {"monomials": []}]]}, "phi2": {"m": [[{"monomials": []}, {"monomials": []}], [{"monomials": []}, {"monomials": []}]]}}}'
# the same field on O(2,0)+O(0,0), the twist of O(1,0)+O(-1,0) by O(1,0):
# the normal form goes by the twist class, so the same answer on the
# input's bundle
sed 's/"L1": \[1, 0\], "L2": \[-1, 0\]/"L1": [2, 0], "L2": [0, 0]/' pm1.json > pm1_twisted.json
grep -q '"L1": \[2, 0\], "L2": \[0, 0\]' pm1_twisted.json
test "$("${cohiggs[@]}" higgs normal-form --field pm1_twisted.json)" = '{"field": {"bundle": {"L1": [2, 0], "L2": [0, 0]}, "phi1": {"m": [[{"monomials": []}, {"monomials": [{"i": 2, "j": 0, "num": 7, "den": 1}, {"i": 1, "j": 0, "num": 1, "den": 1}, {"i": 0, "j": 0, "num": 1, "den": 4}]}], [{"monomials": [{"i": 0, "j": 0, "num": 1, "den": 1}]}, {"monomials": []}]]}, "phi2": {"m": [[{"monomials": []}, {"monomials": []}], [{"monomials": []}, {"monomials": []}]]}}}'
# O(2,2)+O(0,0) is in a class with no normal form: exit 1 with one
# CoHiggsError line
echo '{"bundle": {"L1": [2, 2], "L2": [0, 0]}, "phi1": {"m": [[{"monomials": []}, {"monomials": []}], [{"monomials": []}, {"monomials": []}]]}, "phi2": {"m": [[{"monomials": []}, {"monomials": []}], [{"monomials": []}, {"monomials": []}]]}}' > o22.json
code=0
out="$("${cohiggs[@]}" higgs normal-form --field o22.json)" || code=$?
test "$code" = 1
test "$out" = '{"error": {"kind": "CoHiggsError", "detail": "no normal form implemented for bundle O(2,2)+O(0,0)"}}'
# the F0 normal form and the graded object at 4,000-digit
# coefficients (n below) are closed forms: C1 = n z1 - 1 gives the
# lower-left entry z1 - 1/n, and the O+O field (A B; 0 -A) with
# A = n z1 + 1, B = z1^2 - n, conjugated by (2 1; 1 1), has the
# common eigenvector (2, 1) and the graded object diag(A, -A).
# The answers are read with the int->str cap lifted
python - <<'EOF'
import json
n = int("7" * 4000)
m = lambda i, c: {"i": i, "j": 0, "num": c, "den": 1}
tf = lambda a, b, c: {"m": [[{"monomials": a}, {"monomials": b}], [{"monomials": c}, {"monomials": [dict(t, num=-t["num"]) for t in a]}]]}
zero = tf([], [], [])
f0 = tf([m(2, n), m(0, 1)], [m(3, 3), m(0, -n)], [m(1, n), m(0, -1)])
ss = tf([m(2, -2), m(1, 3 * n), m(0, 2 * n + 3)], [m(2, 4), m(1, -4 * n), m(0, -4 * n - 4)], [m(2, -1), m(1, 2 * n), m(0, n + 2)])
json.dump({"bundle": {"L1": [0, 0], "L2": [-1, 0]}, "phi1": f0, "phi2": zero}, open("f0.json", "w"))
json.dump({"bundle": {"L1": [0, 0], "L2": [0, 0]}, "phi1": ss, "phi2": zero}, open("ss.json", "w"))
EOF
timeout 5 "${cohiggs[@]}" higgs normal-form --field f0.json > f0.out.json
timeout 5 "${cohiggs[@]}" higgs graded --field ss.json > ss.out.json
python -c 'import json, sys; sys.set_int_max_str_digits(0); n = int("7" * 4000); f0, ss = (json.load(open(p)) for p in ("f0.out.json", "ss.out.json")); assert f0["field"]["phi1"]["m"][1][0]["monomials"] == [{"i": 1, "j": 0, "num": 1, "den": 1}, {"i": 0, "j": 0, "num": -1, "den": n}]; g = ss["field"]["phi1"]["m"]; assert g[1][0] == {"monomials": []}; assert g[0][0]["monomials"] == [{"i": 1, "j": 0, "num": n, "den": 1}, {"i": 0, "j": 0, "num": 1, "den": 1}]'
# the Hitchin map and the field check on the same O+O(-1,0) field,
# whose Phi_2 is zero, run the zero paths of the polynomial kernels
# at the input limit: rho1 = det Phi_1 = -A^2 - BC for A = n z1^2 + 1,
# B = 3 z1^3 - n, C = n z1 - 1, and rho12 = rho2 = 0
timeout 5 "${cohiggs[@]}" hitchin --field f0.json > hitchin.json
timeout 5 "${cohiggs[@]}" higgs check --field f0.json > check.json
python - <<'EOF'
import json, sys
from fractions import Fraction as Q
sys.set_int_max_str_digits(0)
n = int("7" * 4000)
mul = lambda p, q: [sum(p[i] * q[k - i] for i in range(len(p)) if 0 <= k - i < len(q)) for k in range(len(p) + len(q) - 1)]
A, B, C = [1, 0, n], [-n, 0, 0, 3], [-1, n]
det = {(k, 0): Q(-x - y) for k, (x, y) in enumerate(zip(mul(A, A), mul(B, C))) if x + y}
h, check = json.load(open("hitchin.json")), json.load(open("check.json"))
assert {(t["i"], t["j"]): Q(t["num"], t["den"]) for t in h["rho1"]["monomials"]} == det
assert h["rho12"] == h["rho2"] == {"monomials": []} and h["consistent"] is True
assert check == {"valid": True, "integrable": True, "stability": "Stable"}, check
EOF
# O+O fields whose nine Phi_1 coefficients are fractions with unrelated
# 4,000-digit numerators and denominators, so the coefficient matrices
# are read over the lcm of nine such denominators (about 120,000 bits).
# Nine random fractions share no eigenvector: Stable.  With A = p_k/q_k,
# C = r_k/q_k and B = C - 2A at each degree k, (1, 1) is a common
# eigenvector of the three coefficient matrices, and the graded object
# is diag(C - A, A - C)
python - <<'EOF'
import json, random
rng = random.Random(4000)
big = lambda: rng.randrange(10**3999, 10**4000)
m = lambda i, num, den: {"i": i, "j": 0, "num": num, "den": den}
tf = lambda a, b, c: {"m": [[{"monomials": a}, {"monomials": b}], [{"monomials": c}, {"monomials": [dict(t, num=-t["num"]) for t in a]}]]}
zero = tf([], [], [])
free = tf(*([m(k, big(), big()) for k in range(3)] for _ in range(3)))
p, r, q = ([big() for _ in range(3)] for _ in range(3))
ss = tf([m(k, p[k], q[k]) for k in range(3)], [m(k, r[k] - 2 * p[k], q[k]) for k in range(3)], [m(k, r[k], q[k]) for k in range(3)])
json.dump({"bundle": {"L1": [0, 0], "L2": [0, 0]}, "phi1": free, "phi2": zero}, open("oo_free.json", "w"))
json.dump({"bundle": {"L1": [0, 0], "L2": [0, 0]}, "phi1": ss, "phi2": zero}, open("oo_ss.json", "w"))
json.dump([[k, r[k] - p[k], q[k]] for k in range(3)], open("oo_ss_graded.json", "w"))
EOF
test "$(timeout 5 "${cohiggs[@]}" higgs check --field oo_free.json)" = '{"valid": true, "integrable": true, "stability": "Stable"}'
test "$(timeout 5 "${cohiggs[@]}" higgs check --field oo_ss.json)" = '{"valid": true, "integrable": true, "stability": "StrictlySemistable"}'
timeout 5 "${cohiggs[@]}" higgs graded --field oo_ss.json > oo_ss.out.json
python -c 'import json, sys; from fractions import Fraction as Q; sys.set_int_max_str_digits(0); g = json.load(open("oo_ss.out.json"))["field"]["phi1"]["m"]; want = {(k, 0): Q(n, d) for k, n, d in json.load(open("oo_ss_graded.json"))}; assert g[1][0] == g[0][1] == {"monomials": []}; assert {(t["i"], t["j"]): Q(t["num"], t["den"]) for t in g[0][0]["monomials"]} == want'
# the two other branches of the common-root rule at the same size, each
# within 2 s.  Three coefficient matrices whose eigenvector quadratics
# q = (c, -2a, -b) are P, R and P + R, for 4,000-digit P and R with a
# nonzero resultant, each over its own 4,000-digit denominator, span a
# pencil with no common root: Stable.  Three multiples t_k (3 5; 7 -3)
# span a line whose quadratic 7x^2 - 6xy - 5y^2 has the irrational roots
# (3 +- 2 sqrt 11)/7: StrictlySemistable, with no rational graded object
python - <<'EOF'
import json, random
rng = random.Random(4002)
big = lambda: rng.randrange(10**3999, 10**4000)
m = lambda i, num, den: {"i": i, "j": 0, "num": num, "den": den}
tf = lambda a, b, c: {"m": [[{"monomials": a}, {"monomials": b}], [{"monomials": c}, {"monomials": [dict(t, num=-t["num"]) for t in a]}]]}
zero = tf([], [], [])
P, R = ((big(), 2 * big(), -big()) for _ in range(2))
assert (P[0] * R[2] - R[0] * P[2]) ** 2 != (P[0] * R[1] - R[0] * P[1]) * (P[1] * R[2] - R[1] * P[2])
q = [P, R, tuple(x + y for x, y in zip(P, R))]
d = [big() for _ in range(3)]
pencil = tf([m(k, -q[k][1] // 2, d[k]) for k in range(3)], [m(k, -q[k][2], d[k]) for k in range(3)], [m(k, q[k][0], d[k]) for k in range(3)])
t = [(big(), big()) for _ in range(3)]
line = tf(*([m(k, e * n, den) for k, (n, den) in enumerate(t)] for e in (3, 5, 7)))
json.dump({"bundle": {"L1": [0, 0], "L2": [0, 0]}, "phi1": pencil, "phi2": zero}, open("oo_pencil.json", "w"))
json.dump({"bundle": {"L1": [0, 0], "L2": [0, 0]}, "phi1": line, "phi2": zero}, open("oo_line.json", "w"))
EOF
test "$(timeout 2 "${cohiggs[@]}" higgs check --field oo_pencil.json)" = '{"valid": true, "integrable": true, "stability": "Stable"}'
test "$(timeout 2 "${cohiggs[@]}" higgs check --field oo_line.json)" = '{"valid": true, "integrable": true, "stability": "StrictlySemistable"}'
code=0
out="$(timeout 2 "${cohiggs[@]}" higgs graded --field oo_line.json)" || code=$?
test "$code" = 1
echo "$out" | python -c 'import json, sys; assert json.load(sys.stdin)["error"]["kind"] == "IrrationalEigenvector"'
# a generic quartic rho1 whose five coefficients are fractions with
# 4,000-digit numerator and denominator: its invariants I and J take a
# few products of integers of about 20,000 digits, well within 2 s
python -c 'import json; n = int("7" * 4000); d = int("3" * 3999 + "1"); m = lambda i: {"i": i, "j": 0, "num": (-1) ** i * (n + i), "den": d + 2 * i}; print(json.dumps({"rho1": {"monomials": [m(i) for i in range(5)]}, "rho12": {"monomials": []}, "rho2": {"monomials": []}}))' > rho4000.json
test "$(timeout 2 "${cohiggs[@]}" spectral classify --rho rho4000.json)" = '{"classification": "ProductCaseAxis1"}'
# the repeated-root case at the limit: rho1 = (z1 - a)^2 (z1 - b)(z1 - c)
# with a, b, c fractions of 975-digit numerator and denominator, so its
# coefficients have about 3,900 digits over about 3,900; the double
# root makes 4 I^3 = J^2
python -c 'from fractions import Fraction as Q; import json; a = Q(int("7" * 974 + "3"), int("3" * 974 + "1")); b = Q(-int("5" * 974 + "1"), int("9" * 974 + "7")); c = Q(int("2" * 974 + "9"), int("1" * 974 + "3")); f = [Q(1)]
for r in (a, a, b, c): f = [x - r * y for x, y in zip([0] + f, f + [0])]
print(json.dumps({"rho1": {"monomials": [{"i": k, "j": 0, "num": q.numerator, "den": q.denominator} for k, q in enumerate(f)]}, "rho12": {"monomials": []}, "rho2": {"monomials": []}}))' > rho_double.json
test "$(timeout 2 "${cohiggs[@]}" spectral classify --rho rho_double.json)" = '{"classification": "NonGenericOther"}'
# both cases again at CPython's 4,300-digit int<->str cap: the same
# generic family with 4,300-digit numerators and denominators, and
# 10 (z1 - a)^2 (z1 - b)(z1 - c) with 1,075-digit a, b, c, whose largest
# numerator has exactly 4,300 digits
python -c 'import json; n = int("7" * 4300); d = int("3" * 4299 + "1"); m = lambda i: {"i": i, "j": 0, "num": (-1) ** i * (n + i), "den": d + 2 * i}; print(json.dumps({"rho1": {"monomials": [m(i) for i in range(5)]}, "rho12": {"monomials": []}, "rho2": {"monomials": []}}))' > rho4300.json
test "$(timeout 2 "${cohiggs[@]}" spectral classify --rho rho4300.json)" = '{"classification": "ProductCaseAxis1"}'
python -c 'from fractions import Fraction as Q; import json; a = Q(int("7" * 1074 + "3"), int("3" * 1074 + "1")); b = Q(-int("5" * 1074 + "1"), int("9" * 1074 + "7")); c = Q(int("2" * 1074 + "9"), int("1" * 1074 + "3")); f = [Q(10)]
for r in (a, a, b, c): f = [x - r * y for x, y in zip([0] + f, f + [0])]
assert max(len(str(abs(x))) for q in f for x in (q.numerator, q.denominator)) == 4300
print(json.dumps({"rho1": {"monomials": [{"i": k, "j": 0, "num": q.numerator, "den": q.denominator} for k, q in enumerate(f)]}, "rho12": {"monomials": []}, "rho2": {"monomials": []}}))' > rho_double4300.json
test "$(timeout 2 "${cohiggs[@]}" spectral classify --rho rho_double4300.json)" = '{"classification": "NonGenericOther"}'
# exact square roots: the fibre of the section-q field of a constant rho
# has radicand -rho when no prime below 1000 divides rho and rho is no
# square.  A 17-digit rho, a 43-digit semiprime and the 4,005-digit
# p^187 * q of two 22-digit primes are each answered within 5 s: one trial
# division and one isqrt, with no factoring
rho4005="$(python -c 'p, q = 2 * 10**21 + 69, 3 * 10**21 + 53; print(p**187 * q)')"
for rho in 30000005200000217 6000000000000000000313000000000000000003657 "$rho4005"; do
  echo "{\"monomials\": [{\"i\": 0, \"j\": 0, \"num\": $rho, \"den\": 1}]}" > rho.json
  "${cohiggs[@]}" higgs section-q --rho rho.json | python -c 'import json, sys; json.dump(json.load(sys.stdin)["field"], sys.stdout)' > field.json
  code=0
  out="$(timeout 5 "${cohiggs[@]}" spectral fibre --field field.json --z1 1 --z2 1)" || code=$?
  echo "${#rho}-digit rho: exit $code, ${out:0:300}"
  test "$code" = 0
  echo "$out" | python -c 'import json, sys; assert json.load(sys.stdin)["points"][0]["eta1"]["radicand"] == -int(sys.argv[1])' "$rho"
done
# a slot violation names the section and its slot, O(a,b) with no space:
# a = z1^3 overshoots a's slot O(2,0) in a pullback, and a degree-5 rho1
# its slot O(4,0); each exits 1 with one SlotViolation line
echo '{"monomials": [{"i": 3, "j": 0, "num": 1, "den": 1}]}' > z1cubed.json
echo '{"monomials": []}' > zero.json
echo '{"monomials": [{"i": 0, "j": 0, "num": 1, "den": 1}]}' > one.json
code=0
out="$("${cohiggs[@]}" higgs pullback --a z1cubed.json --b zero.json --c one.json --axis 1)" || code=$?
test "$code" = 1
test "$out" = '{"error": {"kind": "SlotViolation", "detail": "a does not fit the slot O(2,0)"}}'
echo '{"rho1": {"monomials": [{"i": 5, "j": 0, "num": 1, "den": 1}]}, "rho12": {"monomials": []}, "rho2": {"monomials": []}}' > rho_deg5.json
code=0
out="$("${cohiggs[@]}" spectral classify --rho rho_deg5.json)" || code=$?
test "$code" = 1
test "$out" = '{"error": {"kind": "SlotViolation", "detail": "rho1 does not fit the slot O(4,0)"}}'
# a rational option refuses "_", which Fraction reads as a digit separator
# from Python 3.11 on only: exit 2 with one InputError line on every version
code=0
out="$("${cohiggs[@]}" ext weak-iso --u1=1_0 --v1=2 --u2=5 --v2=1 2>stderr.txt)" || code=$?
test "$code" = 2
test ! -s stderr.txt
echo "$out" | python -c 'import json, sys; (line,) = sys.stdin.read().splitlines(); assert json.loads(line)["error"]["kind"] == "InputError"'
