"""A 30-digit mpmath oracle for infinite products of Gamma ratios, the
quantity ``special_functions.infinite_gamma_product`` sums by its
Stirling-Bernoulli series: here the factors' log-Gammas are summed one by
one, with no series."""
import mpmath as mp


def log_gamma_product(scale, num, den):
    """sum_{k>=0} [sum_i loggamma(x_k + num_i) - sum_j loggamma(x_k + den_j)],
    x_k = scale k, at 30 digits: the factors until x_k passes the offsets'
    size one by one, the rest by mpmath.nsum over blocks of about 1 / scale
    factors, so that the summand varies on a unit scale (nsum's
    extrapolation fails on the raw factors once scale is small).

    Build the offsets in mpmath from the same parameters, so that they
    balance exactly: offsets rounded to double leave sum_i s_i c_i at the
    rounding level, and then the literal sum grows like N log N."""
    with mp.workdps(30):
        scale = mp.mpf(scale)
        num, den = [mp.mpmathify(c) for c in num], [mp.mpmathify(c) for c in den]

        def factor(k):
            x = scale * k
            return (mp.fsum(mp.loggamma(x + c) for c in num)
                    - mp.fsum(mp.loggamma(x + c) for c in den))

        head = int(mp.ceil((max(abs(c) for c in num + den) + 1 + scale) / scale))
        block = int(mp.ceil(1 / scale))
        return (mp.fsum(factor(k) for k in range(head))
                + mp.nsum(lambda j: mp.fsum(factor(head + int(j) * block + i)
                                            for i in range(block)), [0, mp.inf]))
