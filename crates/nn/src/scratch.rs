//! Reusable buffer storage for inference hot paths.
//!
//! Rollout collection calls the policy and value networks millions of
//! times; allocating fresh `Vec`s for every layer output dominated the
//! profile. [`Scratch`] wraps preallocated buffers so they can live inside
//! network structs without affecting the semantics the structs otherwise
//! derive: scratch contents never participate in equality, and cloning a
//! network gives the clone fresh (empty) scratch rather than copying
//! transient state.

use serde::{Deserialize, Serialize};

/// Transparent wrapper for preallocated working memory.
///
/// * `Clone` resets to `T::default()` — buffers are lazily regrown, so a
///   cloned network is identical in behavior without copying scratch.
/// * `PartialEq` always returns `true` — scratch never affects comparisons.
#[derive(Debug, Default, Serialize, Deserialize)]
pub struct Scratch<T>(pub T);

impl<T: Default> Clone for Scratch<T> {
    fn clone(&self) -> Self {
        Self(T::default())
    }
}

impl<T> PartialEq for Scratch<T> {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_resets_contents() {
        let s: Scratch<Vec<f64>> = Scratch(vec![1.0, 2.0]);
        assert!(s.clone().0.is_empty());
    }

    #[test]
    fn equality_ignores_contents() {
        let a: Scratch<Vec<f64>> = Scratch(vec![1.0]);
        let b: Scratch<Vec<f64>> = Scratch(vec![2.0, 3.0]);
        assert_eq!(a, b);
    }
}
