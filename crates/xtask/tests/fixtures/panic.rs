//@path: crates/service/src/oops.rs
//@expect: panic-freedom@9
//@expect: panic-freedom@13
//@expect: panic-freedom@18
//@expect: panic-freedom@24
//@expect: panic-freedom@28

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
