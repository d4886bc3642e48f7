//! 2-D and 3-D points.

use std::ops::{Add, Mul, Sub};

/// A 2-D point (image pixels or ground-plane coordinates).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point2 {
    /// X coordinate.
    pub x: f64,
    /// Y coordinate.
    pub y: f64,
}

impl Point2 {
    /// Creates a point.
    pub fn new(x: f64, y: f64) -> Self {
        Point2 { x, y }
    }

    /// Euclidean distance to `other`.
    pub fn distance(&self, other: &Point2) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f64 {
        (self.x * self.x + self.y * self.y).sqrt()
    }
}

impl Add for Point2 {
    type Output = Point2;
    fn add(self, rhs: Point2) -> Point2 {
        Point2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Point2 {
    type Output = Point2;
    fn sub(self, rhs: Point2) -> Point2 {
        Point2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Mul<f64> for Point2 {
    type Output = Point2;
    fn mul(self, s: f64) -> Point2 {
        Point2::new(self.x * s, self.y * s)
    }
}

/// A 3-D point in world coordinates (X east, Y north, Z up; meters).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point3 {
    /// X coordinate (east).
    pub x: f64,
    /// Y coordinate (north).
    pub y: f64,
    /// Z coordinate (up).
    pub z: f64,
}

impl Point3 {
    /// Creates a point.
    pub fn new(x: f64, y: f64, z: f64) -> Self {
        Point3 { x, y, z }
    }

    /// A ground-plane point (`z = 0`).
    pub fn on_ground(x: f64, y: f64) -> Self {
        Point3 { x, y, z: 0.0 }
    }

    /// Euclidean distance to `other`.
    pub fn distance(&self, other: &Point3) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2) + (self.z - other.z).powi(2))
            .sqrt()
    }

    /// Dot product.
    pub fn dot(&self, other: &Point3) -> f64 {
        self.x * other.x + self.y * other.y + self.z * other.z
    }

    /// Cross product.
    pub fn cross(&self, other: &Point3) -> Point3 {
        Point3::new(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )
    }
}

impl Add for Point3 {
    type Output = Point3;
    fn add(self, rhs: Point3) -> Point3 {
        Point3::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl Sub for Point3 {
    type Output = Point3;
    fn sub(self, rhs: Point3) -> Point3 {
        Point3::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl Mul<f64> for Point3 {
    type Output = Point3;
    fn mul(self, s: f64) -> Point3 {
        Point3::new(self.x * s, self.y * s, self.z * s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_2d() {
        assert!((Point2::new(0.0, 0.0).distance(&Point2::new(3.0, 4.0)) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn arithmetic_2d() {
        let p = Point2::new(1.0, 2.0) + Point2::new(3.0, 4.0);
        assert_eq!(p, Point2::new(4.0, 6.0));
        assert_eq!(p - Point2::new(4.0, 6.0), Point2::default());
        assert_eq!(Point2::new(1.0, -2.0) * 2.0, Point2::new(2.0, -4.0));
    }

    #[test]
    fn cross_product_right_handed() {
        let x = Point3::new(1.0, 0.0, 0.0);
        let y = Point3::new(0.0, 1.0, 0.0);
        assert_eq!(x.cross(&y), Point3::new(0.0, 0.0, 1.0));
    }

    #[test]
    fn dot_orthogonal() {
        let x = Point3::new(1.0, 0.0, 0.0);
        let z = Point3::new(0.0, 0.0, 1.0);
        assert_eq!(x.dot(&z), 0.0);
    }

    #[test]
    fn ground_projection() {
        assert_eq!(Point3::on_ground(1.0, 1.0).z, 0.0);
    }

    #[test]
    fn distance_3d() {
        let a = Point3::new(1.0, 2.0, 3.0);
        let b = Point3::new(1.0, 2.0, 8.0);
        assert!((a.distance(&b) - 5.0).abs() < 1e-12);
    }
}
