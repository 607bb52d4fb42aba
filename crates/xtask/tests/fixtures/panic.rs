//@path: crates/service/src/oops.rs
//@expect: panic-freedom@11
//@expect: panic-freedom@15
//@expect: panic-freedom@20
//@expect: panic-freedom@26
//@expect: panic-freedom@30
//@expect: panic-freedom@34
//@expect: panic-freedom@35

pub fn head(v: &[u64]) -> u64 {
    *v.first().unwrap()
}

pub fn explode() {
    panic!("boom");
}

pub fn sign(x: i8) -> i8 {
    match x {
        0 => unreachable!("caller filtered zero"),
        _ => x.signum(),
    }
}

pub fn later() {
    todo!()
}

pub fn never() {
    unimplemented!("not this mode");
}

pub fn checked(v: &[u64], n: usize) -> u64 {
    assert!(n > 0, "n must be positive");
    assert_eq!(v.len(), n, "shape");
    debug_assert!(v.len() < 1 << 20, "compiled out of release builds");
    v[0]
}
