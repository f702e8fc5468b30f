//! Open-loop load: requests are sent on a seeded schedule whether or not
//! earlier ones have returned, and each is timed from when it was *due*, so
//! the wait a stall imposes on the requests behind it is counted, not
//! hidden. How late the generator itself ran is reported next to it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use mfaplace_rt::rng::{Rng, SeedableRng, StdRng};

/// One scheduled request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Arrival {
    /// When it is due, from the start of the phase.
    pub due: Duration,
    /// Which request of the mix (index into the caller's kinds).
    pub kind: usize,
    /// Which of that kind's prepared inputs to send.
    pub input: usize,
}

/// Poisson arrivals at `rate` per second for `seconds`; each is of kind 1
/// with probability `kind1_share` (else kind 0) and picks one of `inputs`
/// prepared inputs. The same seed gives the same schedule.
pub fn poisson_schedule(
    seed: u64,
    rate: f64,
    seconds: f64,
    kind1_share: f64,
    inputs: usize,
) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut schedule = Vec::new();
    let mut t = 0.0;
    loop {
        // Exponential gap; 1 - u is in (0, 1], so the log is finite.
        t += -(1.0 - rng.gen_f64()).ln() / rate;
        if t >= seconds {
            return schedule;
        }
        schedule.push(Arrival {
            due: Duration::from_secs_f64(t),
            kind: usize::from(rng.gen_bool(kind1_share)),
            input: rng.gen_range(0..inputs.max(1)),
        });
    }
}

/// What happened to one scheduled request.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub kind: usize,
    /// Completion time minus due time.
    pub latency_ms: f64,
    /// Send start minus due time: how late the generator ran.
    pub lag_ms: f64,
    pub ok: bool,
}

/// Sends every arrival of `schedule` at its due time from `senders`
/// threads; `send` performs one request and says whether the reply was
/// right. A sender still busy when the next request falls due sends it
/// late, and that lateness is part of the request's latency.
pub fn run<F>(schedule: &[Arrival], senders: usize, send: F) -> Vec<Sample>
where
    F: Fn(&Arrival) -> bool + Sync,
{
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::with_capacity(schedule.len()));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..senders.max(1) {
            scope.spawn(|| {
                let mut mine = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(arrival) = schedule.get(i) else {
                        break;
                    };
                    let due = start + arrival.due;
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let sent = Instant::now();
                    let ok = send(arrival);
                    mine.push((
                        i,
                        Sample {
                            kind: arrival.kind,
                            latency_ms: due.elapsed().as_secs_f64() * 1e3,
                            lag_ms: sent.duration_since(due).as_secs_f64() * 1e3,
                            ok,
                        },
                    ));
                }
                samples
                    .lock()
                    .expect("a sender thread panicked")
                    .extend(mine);
            });
        }
    });
    let mut samples = samples.into_inner().expect("a sender thread panicked");
    samples.sort_by_key(|(i, _)| *i);
    samples.into_iter().map(|(_, s)| s).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_seeded_and_hit_the_rate() {
        let a = poisson_schedule(7, 200.0, 5.0, 0.25, 16);
        assert_eq!(
            a,
            poisson_schedule(7, 200.0, 5.0, 0.25, 16),
            "same seed, same schedule"
        );
        assert_ne!(
            a,
            poisson_schedule(8, 200.0, 5.0, 0.25, 16),
            "another seed differs"
        );
        assert!((800..1200).contains(&a.len()), "{} arrivals", a.len());
        assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
        assert!(a
            .iter()
            .all(|x| x.due < Duration::from_secs(5) && x.input < 16));
        let designs = a.iter().filter(|x| x.kind == 1).count() as f64 / a.len() as f64;
        assert!((0.18..0.32).contains(&designs), "design share {designs}");
    }

    /// A 50 ms stall in one request must show up in the latency of the
    /// requests that fell due behind it, not be hidden by sending them late
    /// and timing from the send.
    #[test]
    fn a_stall_raises_the_latency_of_the_following_due_requests() {
        let schedule: Vec<Arrival> = (0..30)
            .map(|i| Arrival {
                due: Duration::from_millis(5 * i),
                kind: 0,
                input: 0,
            })
            .collect();
        let stalled = 10;
        let samples = run(&schedule, 1, |a| {
            let ms = if a.due == schedule[stalled].due {
                50
            } else {
                1
            };
            std::thread::sleep(Duration::from_millis(ms));
            true
        });
        assert_eq!(samples.len(), schedule.len());
        // Requests due 5..20 ms after the stalled one waited behind it.
        for s in &samples[stalled + 1..stalled + 4] {
            assert!(
                s.latency_ms >= 30.0,
                "latency {} hides the stall",
                s.latency_ms
            );
            assert!(s.lag_ms >= 25.0, "generator lag {} not reported", s.lag_ms);
        }
        // Only lower bounds are asserted: sleeps never end early, but on a
        // shared host anything can run late.
        assert!(samples.iter().all(|s| s.ok && s.latency_ms >= s.lag_ms));
    }
}
