//! Lenstra–Shmoys–Tardos 2-approximation for classical `R||Cmax`
//! (*no* setup times) — the algorithm the paper's Section 3 contrasts
//! against: "for the classical model … 2-approximations are possible
//! \[23\]", while with setup classes nothing below `Θ(log n + log m)` can
//! exist (Theorem 3.5).
//!
//! Pipeline per guess `T`: the assignment LP with `x_ij = 0` wherever
//! `p_ij > T`, a basic optimal solution, and the rounding that gives each
//! fractional job one machine so that every machine receives at most one
//! fractional job. The last step is exactly the pseudoforest structure of
//! [`crate::pseudoforest`] with jobs in the "class" role: Lemma 3.8's
//! property 1 (machines unique among kept edges) *is* the matching, and
//! property 2 (each job loses at most one support edge, hence keeps one)
//! is its feasibility.
//!
//! Role in this workspace: the **setup-oblivious classical baseline** —
//! run it on an instance *with* setup classes, evaluate under full setup
//! accounting, and watch the gap to Theorem 3.3 grow with setup weight
//! (experiment E8's story, library-side).

use crate::pseudoforest::compute_etilde;
use sst_core::bounds::{unrelated_lower_bound, unrelated_upper_bound};
use sst_core::dual::{binary_search_u64, Decision};
use sst_core::instance::{is_finite, UnrelatedInstance};
use sst_core::schedule::{unrelated_makespan_or_inf, Schedule};
use sst_lp::{LpProblem, LpStatus, Relation, Sense};

/// Result of [`lst_ignore_setups`].
#[derive(Debug, Clone)]
pub struct LstResult {
    /// The schedule (valid as an assignment; setups were *not* considered).
    pub schedule: Schedule,
    /// Makespan **without** setups — what LST optimizes (≤ 2·t_star).
    pub makespan_no_setups: u64,
    /// Makespan **with** setup accounting (may be [`sst_core::INF`] if the
    /// assignment hits a machine whose setup for some class is infinite) —
    /// what the instance actually costs.
    pub makespan_with_setups: u64,
    /// Smallest guess at which the assignment LP was feasible — a lower
    /// bound on the optimal *no-setup* makespan.
    pub t_star: u64,
}

/// The assignment-LP decision at guess `t` (no setups): feasible iff the
/// fractional assignment exists; rounds to a schedule of makespan ≤ `2t`
/// (each machine: its integral load ≤ t plus at most one fractional job of
/// processing time ≤ t).
fn lst_decide(inst: &UnrelatedInstance, t: u64) -> Decision<Schedule> {
    let n = inst.n();
    let m = inst.m();
    let mut lp = LpProblem::new(Sense::Min);
    let mut xvar = vec![vec![None; m]; n];
    for (j, row) in xvar.iter_mut().enumerate() {
        for (i, slot) in row.iter_mut().enumerate() {
            let p = inst.ptime(i, j);
            if is_finite(p) && p <= t {
                // Objective: total processing load (stabilizing tie-break).
                *slot = Some(lp.add_var(p as f64, None));
            }
        }
    }
    for row in xvar.iter() {
        let coeffs: Vec<_> = row.iter().flatten().map(|&v| (v, 1.0)).collect();
        if coeffs.is_empty() {
            return Decision::Infeasible;
        }
        lp.add_constraint(&coeffs, Relation::Eq, 1.0);
    }
    for i in 0..m {
        let coeffs: Vec<_> =
            (0..n).filter_map(|j| xvar[j][i].map(|v| (v, inst.ptime(i, j) as f64))).collect();
        if !coeffs.is_empty() {
            lp.add_constraint(&coeffs, Relation::Le, t as f64);
        }
    }
    let sol = lp.solve();
    if sol.status != LpStatus::Optimal {
        return Decision::Infeasible;
    }
    // Integral part directly; fractional support through the pseudoforest.
    let mut assignment = vec![usize::MAX; n];
    let mut support: Vec<(usize, usize)> = Vec::new();
    for (j, row) in xvar.iter().enumerate() {
        let mut frac = Vec::new();
        for (i, slot) in row.iter().enumerate() {
            if let Some(v) = slot {
                let val = sol.value(*v);
                if val >= 1.0 - 1e-6 {
                    assignment[j] = i;
                    frac.clear();
                    break;
                } else if val > 1e-9 {
                    frac.push(i);
                }
            }
        }
        if assignment[j] == usize::MAX {
            for i in frac {
                support.push((j, i));
            }
        }
    }
    let etilde = compute_etilde(&support, n, m);
    for (j, slot) in assignment.iter_mut().enumerate() {
        if *slot == usize::MAX {
            // Each fractional job keeps ≥ 1 edge; machines are unique among
            // kept edges, so any choice leaves ≤ 1 extra job per machine.
            *slot =
                *etilde.kept[j].first().expect("fractional jobs keep at least one support edge");
        }
    }
    Decision::Feasible(Schedule::new(assignment))
}

/// The full LST pipeline (bisection over `lst_decide`). Setups are
/// ignored during optimization and re-added only in the reported
/// `makespan_with_setups`.
pub fn lst_ignore_setups(inst: &UnrelatedInstance) -> LstResult {
    if inst.n() == 0 {
        return LstResult {
            schedule: Schedule::new(vec![]),
            makespan_no_setups: 0,
            makespan_with_setups: 0,
            t_star: 0,
        };
    }
    // Bounds for the *setup-free* problem.
    let lb = (0..inst.n())
        .map(|j| {
            (0..inst.m()).map(|i| inst.ptime(i, j)).filter(|&p| is_finite(p)).min().unwrap_or(0)
        })
        .max()
        .unwrap_or(0);
    let ub = unrelated_upper_bound(inst).max(lb).max(1);
    let (t_star, schedule) = binary_search_u64(lb, ub, |t| lst_decide(inst, t))
        .expect("assignment LP feasible at the combinatorial upper bound");
    // No-setup makespan: loads of processing times only.
    let mut loads = vec![0u64; inst.m()];
    for j in 0..inst.n() {
        loads[schedule.machine_of(j)] += inst.ptime(schedule.machine_of(j), j);
    }
    let makespan_no_setups = loads.into_iter().max().unwrap_or(0);
    let makespan_with_setups = unrelated_makespan_or_inf(inst, &schedule);
    let _ = unrelated_lower_bound(inst); // (with-setup bound; callers compare)
    LstResult { schedule, makespan_no_setups, makespan_with_setups, t_star }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sst_core::instance::INF;

    fn no_setup_instance() -> UnrelatedInstance {
        UnrelatedInstance::new(
            2,
            vec![0, 0, 0],
            vec![vec![4, 2], vec![3, 3], vec![2, 5]],
            vec![vec![0, 0]],
        )
        .unwrap()
    }

    #[test]
    fn two_approx_without_setups() {
        let inst = no_setup_instance();
        let res = lst_ignore_setups(&inst);
        // LST guarantee: no-setup makespan ≤ 2·t_star ≤ 2·Opt.
        assert!(res.makespan_no_setups <= 2 * res.t_star.max(1));
        let exact = crate::exact::exact_unrelated(&inst, 1 << 20);
        assert!(exact.complete);
        // With zero setups both objectives coincide.
        assert_eq!(res.makespan_no_setups, res.makespan_with_setups);
        assert!(res.makespan_no_setups <= 2 * exact.makespan);
        assert!(res.t_star <= exact.makespan);
    }

    #[test]
    fn respects_infinite_cells() {
        let inst = UnrelatedInstance::new(
            2,
            vec![0, 0],
            vec![vec![5, INF], vec![INF, 7]],
            vec![vec![0, 0]],
        )
        .unwrap();
        let res = lst_ignore_setups(&inst);
        assert_eq!(res.schedule.machine_of(0), 0);
        assert_eq!(res.schedule.machine_of(1), 1);
        assert_eq!(res.makespan_no_setups, 7);
    }

    #[test]
    fn setups_blow_up_the_oblivious_schedule() {
        // Many unit jobs of one class, two machines, huge setups: LST happily
        // splits the jobs (balanced, no-setup view), paying the setup twice;
        // the setup-aware optimum batches.
        let n = 8;
        let inst = UnrelatedInstance::new(2, vec![0; n], vec![vec![1, 1]; n], vec![vec![100, 100]])
            .unwrap();
        let res = lst_ignore_setups(&inst);
        let exact = crate::exact::exact_unrelated(&inst, 1 << 22);
        assert!(exact.complete);
        // Oblivious: ~4 jobs + 100 per machine = 104; optimum: 8+100 = 108?
        // No — parallel setups again: spreading IS optimal here (104 ≤ 108).
        // Make the point differently: LST's *no-setup* view says 4, the true
        // cost is ≥ 104 — the gap between the two objectives is what the
        // baseline mismeasures.
        assert!(res.makespan_no_setups <= 2 * res.t_star.max(1));
        assert!(res.makespan_with_setups >= 100 + res.makespan_no_setups / 2);
        assert!(exact.makespan <= res.makespan_with_setups);
    }

    #[test]
    fn fractional_jobs_get_distinct_machines() {
        // Force fractionality: 3 identical jobs on 2 identical machines at
        // the threshold guess. After rounding, each machine carries at most
        // ⌈3/2⌉ + 1 jobs worth ≤ 2t of processing.
        let inst = UnrelatedInstance::new(2, vec![0, 0, 0], vec![vec![2, 2]; 3], vec![vec![0, 0]])
            .unwrap();
        let res = lst_ignore_setups(&inst);
        assert!(res.makespan_no_setups <= 2 * res.t_star.max(1));
        assert!(res.makespan_no_setups <= 6);
    }
}
