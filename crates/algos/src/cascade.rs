//! The BCAST send cascade.
//!
//! Algorithm BCAST (Section 3) is recursive on ranges: the processor
//! responsible for a contiguous range of `s` processors computes
//! `j = F_λ(f_λ(s) − 1)`, delegates the sub-range of size `s − j` starting
//! at offset `j` to the processor at that offset, and recurses on the
//! first `j` processors — of which it is itself the first. Unrolling the
//! recursion at one processor yields its *cascade*: the ordered list of
//! (offset, delegated-size) sends it performs, one per time unit.
//!
//! Two orientations are provided:
//!
//! * [`Orientation::Standard`] — the originator keeps the larger piece
//!   (`j`, paid for by the `1 + T(j)` branch of Lemma 4) and delegates the
//!   smaller (`s − j`, paid for by `λ + T(s − j)`). This is BCAST itself,
//!   and the orientation used by PACK and PIPELINE-1.
//! * [`Orientation::Swapped`] — used by PIPELINE-2 (`m ≥ λ`), where the
//!   paper notes the algorithm "results in changing the responsibilities
//!   of the sender and the receiver ... for each sender–receiver pair": in
//!   normalized time the *recipient* of a stream is the party free after
//!   one unit, so the recipient receives the larger piece `j` and the
//!   sender keeps the smaller `s − j`.

use postal_model::GenFib;

/// Which side of each split keeps the larger piece.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Orientation {
    /// Sender keeps the larger piece (BCAST, PACK, PIPELINE-1).
    Standard,
    /// Receiver gets the larger piece (PIPELINE-2).
    Swapped,
}

/// One send in a cascade: delegate `size` processors starting at relative
/// offset `offset` (offsets are relative to the cascading processor, which
/// sits at offset 0 of its own range).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CascadeSend {
    /// Offset of the delegate within the sender's range (`1 ≤ offset`).
    pub offset: u64,
    /// Number of processors the delegate becomes responsible for
    /// (including itself).
    pub size: u64,
}

/// The send cascade of a processor responsible for `size` processors
/// (itself included), in send order: one split of the BCAST recursion
/// per item, computed as it is consumed, so a program sends straight
/// from the split loop without collecting the cascade first.
///
/// The sends partition `{1, …, size−1}`: every processor in the range
/// except the sender itself is covered by exactly one delegated
/// sub-range.
///
/// ```
/// use postal_algos::{cascade, Orientation};
/// use postal_model::{GenFib, Latency};
///
/// // Figure 1's root: first delegate sits at offset 9 and inherits 5
/// // processors.
/// let fib = GenFib::covering(Latency::from_ratio(5, 2), 14);
/// let sends: Vec<_> = cascade(&fib, 14, Orientation::Standard).collect();
/// assert_eq!((sends[0].offset, sends[0].size), (9, 5));
/// assert_eq!(sends.len(), 6); // the root transmits for 6 units
/// ```
///
/// # Panics
/// Panics if `size == 0`.
pub fn cascade(fib: &GenFib, size: u64, orientation: Orientation) -> Cascade<'_> {
    assert!(size >= 1, "a range must contain at least the sender");
    Cascade {
        fib,
        s: size as u128,
        orientation,
    }
}

/// Iterator over a cascade's sends; see [`cascade`].
#[derive(Debug, Clone)]
pub struct Cascade<'a> {
    fib: &'a GenFib,
    /// Size of the range the sender still splits; the sender sits at
    /// its offset 0 in both orientations.
    s: u128,
    orientation: Orientation,
}

impl Iterator for Cascade<'_> {
    type Item = CascadeSend;

    fn next(&mut self) -> Option<CascadeSend> {
        if self.s <= 1 {
            return None;
        }
        let (s, j) = (self.s, self.fib.bcast_split(self.s));
        Some(match self.orientation {
            Orientation::Standard => {
                // Delegate [j, s) — the smaller piece — and keep [0, j).
                self.s = j;
                CascadeSend {
                    offset: j as u64,
                    size: (s - j) as u64,
                }
            }
            Orientation::Swapped => {
                // Delegate the *larger* piece [s−j, s) of size j; keep
                // [0, s−j).
                self.s = s - j;
                CascadeSend {
                    offset: (s - j) as u64,
                    size: j as u64,
                }
            }
        })
    }
}

/// Verifies that a cascade partitions the non-sender part of the range
/// (used by tests and debug assertions).
pub fn covers_range(sends: &[CascadeSend], size: u64) -> bool {
    let mut covered = vec![false; size as usize];
    covered[0] = true; // the sender itself
    for s in sends {
        for off in s.offset..s.offset + s.size {
            let idx = off as usize;
            if idx >= size as usize || covered[idx] {
                return false;
            }
            covered[idx] = true;
        }
    }
    covered.into_iter().all(|c| c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use postal_model::Latency;

    #[test]
    fn figure1_cascade() {
        // MPS(14, 5/2): p0 sends to offset 9 (range size 5), then — now
        // responsible for 9 — to offset 6 (size 3), then 4 (size 2),
        // 3 (size 1), 2 (size 1), 1 (size 1): matching Figure 1, where p0
        // sends at t = 0, 1, 2, 3, 4, 5.
        let fib = GenFib::covering(Latency::from_ratio(5, 2), 300);
        let sends = cascade(&fib, 14, Orientation::Standard).collect::<Vec<_>>();
        assert_eq!(
            sends,
            vec![
                CascadeSend { offset: 9, size: 5 },
                CascadeSend { offset: 6, size: 3 },
                CascadeSend { offset: 4, size: 2 },
                CascadeSend { offset: 3, size: 1 },
                CascadeSend { offset: 2, size: 1 },
                CascadeSend { offset: 1, size: 1 },
            ]
        );
    }

    #[test]
    fn singleton_range_has_no_sends() {
        let fib = GenFib::covering(Latency::TELEPHONE, 300);
        assert_eq!(cascade(&fib, 1, Orientation::Standard).next(), None);
        assert_eq!(cascade(&fib, 1, Orientation::Swapped).next(), None);
    }

    #[test]
    fn pair_sends_once() {
        let fib = GenFib::covering(Latency::from_ratio(5, 2), 300);
        assert_eq!(
            cascade(&fib, 2, Orientation::Standard).collect::<Vec<_>>(),
            vec![CascadeSend { offset: 1, size: 1 }]
        );
        assert_eq!(
            cascade(&fib, 2, Orientation::Swapped).collect::<Vec<_>>(),
            vec![CascadeSend { offset: 1, size: 1 }]
        );
    }

    #[test]
    fn both_orientations_partition_the_range() {
        for lam in [
            Latency::TELEPHONE,
            Latency::from_ratio(3, 2),
            Latency::from_ratio(5, 2),
            Latency::from_int(4),
        ] {
            let fib = GenFib::covering(lam, 300);
            for size in 1..=300u64 {
                for orientation in [Orientation::Standard, Orientation::Swapped] {
                    let sends: Vec<_> = cascade(&fib, size, orientation).collect();
                    assert!(
                        covers_range(&sends, size),
                        "λ={lam} size={size} {orientation:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn telephone_standard_is_binomial_halving() {
        // λ = 1: recursive halving (hypercube/binomial broadcast).
        let fib = GenFib::covering(Latency::TELEPHONE, 300);
        let sends: Vec<_> = cascade(&fib, 16, Orientation::Standard).collect();
        assert_eq!(
            sends,
            vec![
                CascadeSend { offset: 8, size: 8 },
                CascadeSend { offset: 4, size: 4 },
                CascadeSend { offset: 2, size: 2 },
                CascadeSend { offset: 1, size: 1 },
            ]
        );
    }

    #[test]
    fn swapped_mirrors_sizes_of_standard() {
        // The multiset of delegated sizes at the top split differs in
        // *who* keeps the big half; the first swapped send must delegate
        // the piece the standard sender would have kept... for the first
        // split: standard delegates s−j, swapped delegates j.
        let fib = GenFib::covering(Latency::from_int(2), 300);
        for size in 2..200u64 {
            let j = fib.bcast_split(size as u128) as u64;
            let std = cascade(&fib, size, Orientation::Standard).next().unwrap();
            let swp = cascade(&fib, size, Orientation::Swapped).next().unwrap();
            assert_eq!(std.size, size - j);
            assert_eq!(swp.size, j);
        }
    }

    #[test]
    fn covers_range_rejects_overlap_and_gap() {
        // Overlap.
        assert!(!covers_range(
            &[
                CascadeSend { offset: 1, size: 2 },
                CascadeSend { offset: 2, size: 1 }
            ],
            3
        ));
        // Gap.
        assert!(!covers_range(&[CascadeSend { offset: 2, size: 1 }], 3));
        // Out of range.
        assert!(!covers_range(&[CascadeSend { offset: 1, size: 5 }], 3));
    }
}
