//! Planar geometry in microns.
//!
//! All coordinates in the workspace are microns in the die plane, with
//! the origin at the die's lower-left corner. The flux integrator needs
//! areas, containment tests, intersections and centroids; nothing more
//! exotic.

use crate::error::LayoutError;
use std::fmt;

/// A point in the die plane (µm).
///
/// # Example
///
/// ```
/// use psa_layout::Point;
/// let p = Point::new(3.0, 4.0);
/// assert_eq!(p.distance_to(Point::ORIGIN), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// X coordinate in microns.
    pub x: f64,
    /// Y coordinate in microns.
    pub y: f64,
}

impl Point {
    /// The origin (0, 0).
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// Creates a point.
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to another point.
    pub fn distance_to(self, other: Point) -> f64 {
        (self.x - other.x).hypot(self.y - other.y)
    }

    /// Midpoint between two points.
    pub fn midpoint(self, other: Point) -> Point {
        Point::new((self.x + other.x) / 2.0, (self.y + other.y) / 2.0)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.2}, {:.2}) um", self.x, self.y)
    }
}

/// An axis-aligned rectangle (µm), stored as min/max corners.
///
/// # Example
///
/// ```
/// use psa_layout::Rect;
/// let r = Rect::new(0.0, 0.0, 10.0, 5.0);
/// assert_eq!(r.area(), 50.0);
/// assert!(r.contains(psa_layout::Point::new(5.0, 2.5)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    min: Point,
    max: Point,
}

impl Rect {
    /// Creates a rectangle from two corners; the corners may be given in
    /// any order and are normalized.
    pub fn new(x0: f64, y0: f64, x1: f64, y1: f64) -> Self {
        Rect {
            min: Point::new(x0.min(x1), y0.min(y1)),
            max: Point::new(x0.max(x1), y0.max(y1)),
        }
    }

    /// Creates a rectangle from a corner plus width/height.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::DegenerateRect`] when either extent is not
    /// strictly positive.
    pub fn from_size(x: f64, y: f64, w: f64, h: f64) -> Result<Self, LayoutError> {
        if w <= 0.0 || h <= 0.0 {
            return Err(LayoutError::DegenerateRect {
                width_um: w,
                height_um: h,
            });
        }
        Ok(Rect::new(x, y, x + w, y + h))
    }

    /// Creates a rectangle centred on `c` with the given width/height.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::DegenerateRect`] when either extent is not
    /// strictly positive.
    pub fn centered(c: Point, w: f64, h: f64) -> Result<Self, LayoutError> {
        Rect::from_size(c.x - w / 2.0, c.y - h / 2.0, w, h)
    }

    /// Minimum (lower-left) corner.
    pub fn min(&self) -> Point {
        self.min
    }

    /// Maximum (upper-right) corner.
    pub fn max(&self) -> Point {
        self.max
    }

    /// Width in µm.
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height in µm.
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Area in µm².
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Centre point.
    pub fn center(&self) -> Point {
        self.min.midpoint(self.max)
    }

    /// `true` if `p` lies inside or on the boundary.
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// `true` if the rectangles overlap with positive area.
    pub fn intersects(&self, other: &Rect) -> bool {
        self.min.x < other.max.x
            && other.min.x < self.max.x
            && self.min.y < other.max.y
            && other.min.y < self.max.y
    }

    /// Rectangle grown by `margin` µm on every side (shrunk if negative;
    /// the result is clamped to remain non-degenerate).
    pub fn inflate(&self, margin: f64) -> Rect {
        let mut r = Rect {
            min: Point::new(self.min.x - margin, self.min.y - margin),
            max: Point::new(self.max.x + margin, self.max.y + margin),
        };
        if r.min.x > r.max.x {
            let m = (r.min.x + r.max.x) / 2.0;
            r.min.x = m;
            r.max.x = m;
        }
        if r.min.y > r.max.y {
            let m = (r.min.y + r.max.y) / 2.0;
            r.min.y = m;
            r.max.y = m;
        }
        r
    }

    /// The four corners counter-clockwise from the lower-left.
    pub fn corners(&self) -> [Point; 4] {
        [
            self.min,
            Point::new(self.max.x, self.min.y),
            self.max,
            Point::new(self.min.x, self.max.y),
        ]
    }

    /// This rectangle as a 4-vertex polygon.
    pub fn to_polygon(&self) -> Polygon {
        Polygon::new(self.corners().to_vec()).expect("4 corners are enough")
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:.1},{:.1} .. {:.1},{:.1}] um",
            self.min.x, self.min.y, self.max.x, self.max.y
        )
    }
}

/// A simple polygon (vertices in order, implicitly closed).
///
/// Programmed PSA coils are rectilinear but not always rectangular
/// (L-shapes, multi-turn spirals), so the flux integrator works on
/// polygons.
///
/// # Example
///
/// ```
/// use psa_layout::{Point, Polygon};
/// let tri = Polygon::new(vec![
///     Point::new(0.0, 0.0),
///     Point::new(4.0, 0.0),
///     Point::new(0.0, 3.0),
/// ])?;
/// assert_eq!(tri.area(), 6.0);
/// # Ok::<(), psa_layout::LayoutError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Polygon {
    vertices: Vec<Point>,
}

impl Polygon {
    /// Creates a polygon from at least three vertices.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::TooFewVertices`] with fewer than three.
    pub fn new(vertices: Vec<Point>) -> Result<Self, LayoutError> {
        if vertices.len() < 3 {
            return Err(LayoutError::TooFewVertices {
                got: vertices.len(),
            });
        }
        Ok(Polygon { vertices })
    }

    /// The vertices in order.
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Signed area via the shoelace formula (positive for counter-
    /// clockwise winding).
    pub fn signed_area(&self) -> f64 {
        let n = self.vertices.len();
        let mut acc = 0.0;
        for i in 0..n {
            let a = self.vertices[i];
            let b = self.vertices[(i + 1) % n];
            acc += a.x * b.y - b.x * a.y;
        }
        acc / 2.0
    }

    /// Absolute area in µm².
    pub fn area(&self) -> f64 {
        self.signed_area().abs()
    }

    /// Area centroid. Falls back to the vertex mean for zero-area
    /// polygons.
    pub fn centroid(&self) -> Point {
        let a = self.signed_area();
        if a.abs() < 1e-12 {
            let n = self.vertices.len() as f64;
            let sx: f64 = self.vertices.iter().map(|p| p.x).sum();
            let sy: f64 = self.vertices.iter().map(|p| p.y).sum();
            return Point::new(sx / n, sy / n);
        }
        let n = self.vertices.len();
        let mut cx = 0.0;
        let mut cy = 0.0;
        for i in 0..n {
            let p = self.vertices[i];
            let q = self.vertices[(i + 1) % n];
            let cross = p.x * q.y - q.x * p.y;
            cx += (p.x + q.x) * cross;
            cy += (p.y + q.y) * cross;
        }
        Point::new(cx / (6.0 * a), cy / (6.0 * a))
    }

    /// Even-odd point containment (boundary points may go either way).
    pub fn contains(&self, p: Point) -> bool {
        let n = self.vertices.len();
        let mut inside = false;
        let mut j = n - 1;
        for i in 0..n {
            let vi = self.vertices[i];
            let vj = self.vertices[j];
            if ((vi.y > p.y) != (vj.y > p.y))
                && (p.x < (vj.x - vi.x) * (p.y - vi.y) / (vj.y - vi.y) + vi.x)
            {
                inside = !inside;
            }
            j = i;
        }
        inside
    }
}

impl fmt::Display for Polygon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "polygon[{} vertices, {:.1} um^2]",
            self.vertices.len(),
            self.area()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_distance_and_midpoint() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(6.0, 8.0);
        assert_eq!(a.distance_to(b), 10.0);
        assert_eq!(a.midpoint(b), Point::new(3.0, 4.0));
    }

    #[test]
    fn rect_normalizes_corners() {
        let r = Rect::new(10.0, 5.0, 0.0, 0.0);
        assert_eq!(r.min(), Point::new(0.0, 0.0));
        assert_eq!(r.max(), Point::new(10.0, 5.0));
        assert_eq!(r.width(), 10.0);
        assert_eq!(r.height(), 5.0);
        assert_eq!(r.area(), 50.0);
        assert_eq!(r.center(), Point::new(5.0, 2.5));
    }

    #[test]
    fn rect_from_size_validates() {
        assert!(Rect::from_size(0.0, 0.0, 1.0, 1.0).is_ok());
        assert!(Rect::from_size(0.0, 0.0, 0.0, 1.0).is_err());
        assert!(Rect::from_size(0.0, 0.0, 1.0, -1.0).is_err());
        assert!(Rect::centered(Point::ORIGIN, 2.0, 2.0).is_ok());
    }

    #[test]
    fn rect_contains_boundary() {
        let r = Rect::new(0.0, 0.0, 2.0, 2.0);
        assert!(r.contains(Point::new(0.0, 0.0)));
        assert!(r.contains(Point::new(2.0, 2.0)));
        assert!(r.contains(Point::new(1.0, 1.0)));
        assert!(!r.contains(Point::new(2.1, 1.0)));
    }

    #[test]
    fn rect_intersects_cases() {
        let a = Rect::new(0.0, 0.0, 10.0, 10.0);
        assert!(a.intersects(&Rect::new(5.0, 5.0, 15.0, 15.0)));
        assert!(!a.intersects(&Rect::new(100.0, 100.0, 110.0, 110.0)));
    }

    #[test]
    fn rect_inflate() {
        let a = Rect::new(0.0, 0.0, 1.0, 1.0);
        let g = a.inflate(1.0);
        assert_eq!(g, Rect::new(-1.0, -1.0, 2.0, 2.0));
        // Over-shrinking collapses to the centre instead of inverting.
        let s = a.inflate(-10.0);
        assert!(s.area() == 0.0);
        assert_eq!(s.center(), a.center());
    }

    #[test]
    fn polygon_area_square_and_triangle() {
        let sq = Rect::new(0.0, 0.0, 2.0, 2.0).to_polygon();
        assert_eq!(sq.area(), 4.0);
        assert!(sq.signed_area() > 0.0); // counter-clockwise corners
        let tri = Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(0.0, 3.0),
        ])
        .unwrap();
        assert_eq!(tri.area(), 6.0);
    }

    #[test]
    fn polygon_validates_vertex_count() {
        assert!(Polygon::new(vec![Point::ORIGIN, Point::new(1.0, 1.0)]).is_err());
    }

    #[test]
    fn polygon_centroid_of_square() {
        let sq = Rect::new(2.0, 2.0, 6.0, 6.0).to_polygon();
        let c = sq.centroid();
        assert!((c.x - 4.0).abs() < 1e-12);
        assert!((c.y - 4.0).abs() < 1e-12);
    }

    #[test]
    fn polygon_contains() {
        let sq = Rect::new(0.0, 0.0, 10.0, 10.0).to_polygon();
        assert!(sq.contains(Point::new(5.0, 5.0)));
        assert!(!sq.contains(Point::new(15.0, 5.0)));
        // L-shape.
        let l = Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(10.0, 5.0),
            Point::new(5.0, 5.0),
            Point::new(5.0, 10.0),
            Point::new(0.0, 10.0),
        ])
        .unwrap();
        assert!(l.contains(Point::new(2.0, 8.0)));
        assert!(!l.contains(Point::new(8.0, 8.0)));
        assert_eq!(l.area(), 75.0);
    }

    #[test]
    fn display_impls() {
        assert!(Point::new(1.0, 2.0).to_string().contains("um"));
        assert!(Rect::new(0.0, 0.0, 1.0, 1.0).to_string().contains(".."));
        let sq = Rect::new(0.0, 0.0, 2.0, 2.0).to_polygon();
        assert!(sq.to_string().contains("4 vertices"));
    }
}
