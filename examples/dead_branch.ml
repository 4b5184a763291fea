// Provably-unreachable code two ways: the interval analysis, exact on
// constants, folds `a != 42` to false (the then-arm, with its division
// by zero, can never run), and known bits bound `x & 63` to [0, 63] so
// the second guard is dead too.
// `fcc analyze examples/dead_branch.ml` warns on both branches without
// executing anything.
fn dead_branch(x) {
    let a = 6 * 7;
    if a != 42 {
        x = x / 0;
    }
    let m = x & 63;
    if m > 63 {
        x = 0 - x;
    }
    return x + a;
}
