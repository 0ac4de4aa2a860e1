"""
Heisenberg-picture operator flow
================================

At t* the evolved boundary correlators X_i X_{N-i+1} and Y_i Y_{N-i+1}
collapse onto single signed Z-strings. This is the operator-side
fingerprint of the nested Bell structure: each string heralds one pair.
"""
from bellchain import ChainSpec, flux_check, matryoshka_time, mirror_pair_sign

t_star = matryoshka_time()

for n in (3, 5, 7):
    print(f"N = {n}")
    for match in flux_check(ChainSpec(n, 1.0), t_star):
        sites = ",".join(str(s) for s in match.z_sites)
        sign = "+" if match.sign > 0 else "-"
        predicted = mirror_pair_sign(n, match.pair_index)
        print(
            f"  {match.kind}({match.pair_index},{n - match.pair_index + 1})"
            f" -> {sign}Z[{sites}]"
            f"  residual {match.residual:.2e}"
            f"  predicted sign {predicted:+d}"
        )

# Away from t* the same correlator spreads over many Pauli strings.
print("at t*/2 the N=3 XX correlator does not reduce to a Z-string:")
for match in flux_check(ChainSpec(3, 1.0), t_star / 2):
    print(f"  {match.kind}: matched = {match.matched}")
