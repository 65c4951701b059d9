"""One-class SVM on a 2-D blob: the nu guarantees, drawn in ASCII.

nu upper-bounds the training outlier fraction and lower-bounds the support
vector fraction. The map below shows the learned decision region ('#'
inside, '.' outside) with the training points overlaid ('o' inliers,
'x' the points the boundary excludes).
"""

import numpy as np

from canids.detector import decision_values, fit_ocsvm

N = 150
NU = 0.1


def main() -> None:
    rng = np.random.default_rng(11)
    points = rng.normal(0.0, 0.8, size=(N, 2))
    model = fit_ocsvm(points, nu=NU, tol=1e-5)

    flags = decision_values(model, points) < 0.0
    outlier_frac = flags.mean()
    sv_frac = len(model.alphas) / N
    print(f"n={N}, nu={NU}, gamma={model.gamma:.3f}, "
          f"converged={model.converged}")
    print(f"training outlier fraction: {outlier_frac:.3f} "
          f"(bound: <= nu + 1/n = {NU + 1 / N:.3f})")
    print(f"support vector fraction:   {sv_frac:.3f} "
          f"(bound: >= nu - 1/n = {NU - 1 / N:.3f})")

    # 61 x 25 character canvas over [-3, 3]^2
    xs = np.linspace(-3.0, 3.0, 61)
    ys = np.linspace(3.0, -3.0, 25)
    grid = np.array([[x, y] for y in ys for x in xs])
    inside = decision_values(model, grid) >= 0.0
    canvas = np.where(inside.reshape(25, 61), "#", ".")

    def cell(p):
        col = int(round((p[0] + 3.0) / 6.0 * 60))
        row = int(round((3.0 - p[1]) / 6.0 * 24))
        return row, col

    for p, bad in zip(points, flags):
        r, c = cell(p)
        if 0 <= r < 25 and 0 <= c < 61:
            canvas[r, c] = "x" if bad else "o"

    print()
    for row in canvas:
        print("".join(row))
    print("\n'#' decision region, 'o' accepted training points, "
          "'x' excluded ones")


if __name__ == "__main__":
    main()
