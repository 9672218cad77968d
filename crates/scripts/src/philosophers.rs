//! Dining philosophers as a script: philosophers and forks are all
//! roles, and one dinner is one performance.
//!
//! Each fork role serves its two neighboring philosophers (grant,
//! queue, release) with a guarded selection and stops via the
//! `terminated` query, exactly like the paper's lock managers.
//! Philosophers avoid the classic deadlock by asymmetric acquisition:
//! even seats take the left fork first, odd seats the right.

use script_core::{
    Event, FamilyHandle, Guard, Initiation, Instance, RoleId, Script, ScriptError, Termination,
};

/// Messages between philosophers and forks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ForkMsg {
    /// A philosopher asks for the fork.
    Request,
    /// The fork is granted to the requester.
    Grant,
    /// The philosopher puts the fork down.
    Release,
}

/// The packaged dinner script.
#[derive(Debug)]
pub struct Dinner {
    /// The underlying script.
    pub script: Script<ForkMsg>,
    /// The philosopher family: parameter is how many times to eat;
    /// result is the number of meals actually eaten.
    pub philosopher: FamilyHandle<ForkMsg, usize, usize>,
    /// The fork family: result is how many grants it issued.
    pub fork: FamilyHandle<ForkMsg, (), usize>,
    n: usize,
}

impl Dinner {
    /// Number of seats (philosophers = forks).
    pub fn seats(&self) -> usize {
        self.n
    }
}

fn phil(i: usize) -> RoleId {
    RoleId::indexed("philosopher", i)
}
fn fork_id(i: usize) -> RoleId {
    RoleId::indexed("fork", i)
}

/// Builds a dinner for `n` philosophers (and `n` forks).
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn dinner(n: usize) -> Dinner {
    assert!(n >= 2, "a table needs at least two philosophers");
    let mut b = Script::<ForkMsg>::builder("dining_philosophers");

    // Fork i sits between philosopher i (its "left user") and
    // philosopher (i+1) % n (its "right user").
    let fork = b.family("fork", n, move |ctx, ()| {
        let me = ctx.role().index().expect("fork is indexed");
        let left_user = phil(me);
        let right_user = phil((me + 1) % n);
        let mut holder: Option<RoleId> = None;
        let mut waiting: Option<RoleId> = None;
        let mut grants = 0;
        loop {
            let l_done = ctx.terminated(&left_user);
            let r_done = ctx.terminated(&right_user);
            if l_done && r_done {
                return Ok(grants);
            }
            let event = ctx.select(vec![
                Guard::recv_from(left_user.clone()).when(!l_done),
                Guard::recv_from(right_user.clone()).when(!r_done),
                Guard::watch(left_user.clone()).when(!l_done),
                Guard::watch(right_user.clone()).when(!r_done),
            ])?;
            match event {
                Event::Received { from, msg, .. } => match msg {
                    ForkMsg::Request => {
                        if holder.is_none() {
                            holder = Some(from.clone());
                            grants += 1;
                            ctx.send(&from, ForkMsg::Grant)?;
                        } else {
                            debug_assert!(waiting.is_none(), "only two users per fork");
                            waiting = Some(from);
                        }
                    }
                    ForkMsg::Release => {
                        debug_assert_eq!(holder.as_ref(), Some(&from));
                        holder = None;
                        if let Some(w) = waiting.take() {
                            holder = Some(w.clone());
                            grants += 1;
                            ctx.send(&w, ForkMsg::Grant)?;
                        }
                    }
                    ForkMsg::Grant => {
                        return Err(ScriptError::app("philosophers do not grant forks"))
                    }
                },
                Event::Terminated { .. } => {}
                Event::Sent { .. } => unreachable!("no send guards"),
            }
        }
    });

    let philosopher = b.family("philosopher", n, move |ctx, rounds: usize| {
        let me = ctx.role().index().expect("philosopher is indexed");
        let left = fork_id(me);
        let right = fork_id((me + n - 1) % n);
        // Asymmetric acquisition order prevents the circular wait.
        let (first, second) = if me % 2 == 0 {
            (left.clone(), right.clone())
        } else {
            (right.clone(), left.clone())
        };
        let mut meals = 0;
        for _ in 0..rounds {
            ctx.send(&first, ForkMsg::Request)?;
            match ctx.recv_from(&first)? {
                ForkMsg::Grant => {}
                other => return Err(ScriptError::app(format!("expected grant, got {other:?}"))),
            }
            ctx.send(&second, ForkMsg::Request)?;
            match ctx.recv_from(&second)? {
                ForkMsg::Grant => {}
                other => return Err(ScriptError::app(format!("expected grant, got {other:?}"))),
            }
            meals += 1; // eat
            ctx.send(&second, ForkMsg::Release)?;
            ctx.send(&first, ForkMsg::Release)?;
        }
        Ok(meals)
    });

    b.initiation(Initiation::Delayed)
        .termination(Termination::Delayed);
    Dinner {
        script: b.build().expect("dinner spec is valid"),
        philosopher,
        fork,
        n,
    }
}

/// Runs one dinner of `rounds` meals per philosopher; returns
/// `(meals per philosopher, grants per fork)`.
///
/// # Errors
///
/// The first error any participant reported.
pub fn run(d: &Dinner, rounds: usize) -> Result<(Vec<usize>, Vec<usize>), ScriptError> {
    let instance = d.script.instance();
    run_on(&instance, d, rounds)
}

/// Like [`run`] on an existing instance.
///
/// # Errors
///
/// The first error any participant reported.
pub fn run_on(
    instance: &Instance<ForkMsg>,
    d: &Dinner,
    rounds: usize,
) -> Result<(Vec<usize>, Vec<usize>), ScriptError> {
    std::thread::scope(|s| {
        let forks: Vec<_> = (0..d.n)
            .map(|i| {
                let fork = &d.fork;
                s.spawn(move || instance.enroll_member(fork, i, ()))
            })
            .collect();
        let phils: Vec<_> = (0..d.n)
            .map(|i| {
                let philosopher = &d.philosopher;
                s.spawn(move || instance.enroll_member(philosopher, i, rounds))
            })
            .collect();
        let mut meals = Vec::with_capacity(d.n);
        for p in phils {
            meals.push(p.join().expect("philosopher threads do not panic")?);
        }
        let mut grants = Vec::with_capacity(d.n);
        for f in forks {
            grants.push(f.join().expect("fork threads do not panic")?);
        }
        Ok((meals, grants))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn everyone_eats_every_round() {
        let d = dinner(5);
        let (meals, grants) = run(&d, 3).unwrap();
        assert_eq!(meals, vec![3; 5]);
        // Each meal takes two grants; each fork serves two philosophers.
        assert_eq!(grants.iter().sum::<usize>(), 2 * 3 * 5);
    }

    #[test]
    fn two_philosophers_share_two_forks() {
        let d = dinner(2);
        let (meals, grants) = run(&d, 4).unwrap();
        assert_eq!(meals, vec![4, 4]);
        assert_eq!(grants, vec![8, 8]);
    }

    #[test]
    fn no_deadlock_under_many_rounds() {
        // The classic symmetric protocol deadlocks almost immediately;
        // the asymmetric one must survive a long dinner. The engine's
        // own adaptive watchdog guards the assertion: a deadlocked
        // performance stops producing rendezvous, the watchdog declares
        // it stalled and aborts it, and `run_on` surfaces the abort as
        // an error instead of hanging the test.
        let d = dinner(5);
        let inst = d.script.instance();
        inst.set_watchdog_policy(script_core::WatchdogPolicy::Adaptive);
        let (meals, _) = run_on(&inst, &d, 25).expect("dinner must not stall");
        assert_eq!(meals, vec![25; 5]);
        assert_eq!(inst.completed_performances(), 1);
    }

    #[test]
    fn successive_dinners() {
        let d = dinner(3);
        let inst = d.script.instance();
        for _ in 0..3 {
            let (meals, _) = run_on(&inst, &d, 2).unwrap();
            assert_eq!(meals, vec![2; 3]);
        }
        assert_eq!(inst.completed_performances(), 3);
    }
}
